#!/usr/bin/env bash
# quickcheck — the full local correctness-gate matrix in one command.
#
#   tools/quickcheck.sh [--jobs N] [--skip-tsan] [--skip-asan]
#
# Runs, per preset (release, asan, tsan): configure, build, and the full
# ctest suite; then the `lint` and `bench-smoke` ctest labels on the
# release tree (plus the lint artifact gate: the repo-wide run must emit
# schema-valid gansec.lint.v1 and gansec.lintdb.v1 artifacts accepted by
# gansec_benchdiff --check), a build and smoke run of the bench/e2e
# benchmark package, the full-scale profiler
# overhead/symbolization gate with
# a benchdiff against the committed baseline, the streaming-monitor
# gate, the incident-forensics gate (live /incidentz plus a kill -SEGV
# crash that must leave a valid gansec.incident.v1 bundle), and the
# `ckpt` checkpoint-format battery on the asan tree (the format's
# corruption guarantees are proven under ASan). Prints a pass/fail
# summary table and exits non-zero if anything failed. Designed to be
# what you run before pushing.
set -u

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_ASAN=1
RUN_TSAN=1
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --skip-asan) RUN_ASAN=0; shift ;;
    --skip-tsan) RUN_TSAN=0; shift ;;
    *) echo "quickcheck: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

STEPS=()
RESULTS=()
SECONDS_SPENT=()

run_step() {
  # run_step <name> <cmd...>
  local name="$1"; shift
  local start end
  echo
  echo "==== ${name}: $*"
  start=$(date +%s)
  if "$@"; then
    RESULTS+=("PASS")
  else
    RESULTS+=("FAIL")
  fi
  end=$(date +%s)
  STEPS+=("${name}")
  SECONDS_SPENT+=("$((end - start))")
}

preset_suite() {
  # preset_suite <preset>
  local preset="$1"
  run_step "${preset}/configure" cmake --preset "${preset}"
  run_step "${preset}/build" cmake --build --preset "${preset}" -j "${JOBS}"
  run_step "${preset}/test" ctest --preset "${preset}" -j "${JOBS}"
}

preset_suite release
[ "${RUN_ASAN}" = 1 ] && preset_suite asan
[ "${RUN_TSAN}" = 1 ] && preset_suite tsan

# Label gates run on the release tree (the lint and bench binaries there).
run_step "lint-label" ctest --test-dir build -L lint --output-on-failure

# Lint artifact gate: one repo-wide run emitting both the violations
# artifact and the interprocedural call-graph database. The jq probes pin
# the members downstream tooling keys on: a clean check, and call-graph
# evidence that actually reached both constraint families (opaque edges
# included), so an engine regression that silently stops propagating
# fails here rather than by linting "clean".
lint_artifact_gate() {
  local out=build/lint-out
  mkdir -p "${out}"
  build/tools/gansec_lint --manifest tools/metrics_manifest.txt \
    --json "${out}/lint.json" --lintdb "${out}/lintdb.json" --quiet \
    include src || return 1
  jq -e '.schema == "gansec.lint.v1" and .checks.clean == true' \
    "${out}/lint.json" >/dev/null || {
    echo "lint: lint.json is not a clean gansec.lint.v1 artifact" >&2
    return 1; }
  jq -e '.schema == "gansec.lintdb.v1"
         and .checks.clean == true
         and (.functions | length) > 0
         and (.edges | length) > 0
         and ([.edges[] | select(.opaque)] | length) > 0
         and ([.reachability[] | select(.constraint == "hot-path")]
              | length) > 0
         and ([.reachability[] | select(.constraint == "signal-context")]
              | length) > 0' \
    "${out}/lintdb.json" >/dev/null || {
    echo "lint: lintdb.json is not a populated gansec.lintdb.v1 artifact" >&2
    return 1; }
  build/tools/gansec_benchdiff --check "${out}/lint.json" || return 1
  build/tools/gansec_benchdiff --check "${out}/lintdb.json" || return 1
}
run_step "lint-artifacts" lint_artifact_gate
run_step "bench-smoke" ctest --test-dir build -L bench-smoke --output-on-failure

# End-to-end benchmark gate. bench/e2e is a CMake package of its own that
# builds the library from src/, so neither the tree above nor its tests
# notice when a library change breaks that build (a changed signature that
# bench/e2e calls, say). Configure it into build-e2e, build its two
# programs, and run its smoke ctests.
e2e_smoke() {
  cmake -S bench/e2e -B build-e2e -DCMAKE_BUILD_TYPE=Release || return 1
  cmake --build build-e2e --target gansec_bench gansec_benchdiff \
    -j "${JOBS}" || return 1
  ctest --test-dir build-e2e -L bench-smoke --output-on-failure
}
run_step "e2e-smoke" e2e_smoke

# Live-introspection gate, two legs.
#
# Leg 1: smoke-run the CLI with the profiler on and the OpenMetrics
# endpoint up; scrape /healthz + /metrics while it runs and validate the
# profile artifact's schema afterwards.
#
# Leg 2: the profiled train-step pair at full scale. bench_perf_core
# itself exits non-zero when profiling overhead exceeds 2% or fewer than
# 80% of frames symbolize; the fresh artifact is then schema-checked and
# diffed against the committed baseline (generous threshold — hosts
# differ; the gate numbers themselves are absolute).
profile_gate() {
  local out=build/profile-out port=19464
  mkdir -p "${out}"
  build/tools/gansec sweep --samples 6 --bins 8 --window 0.05 \
    --iterations 40 --threads 2 \
    --expose "${port}" --profile "${out}/sweep.folded" \
    > "${out}/sweep.stdout" 2> "${out}/sweep.stderr" &
  local cli_pid=$!
  local scraped=""
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${port}/healthz" >/dev/null 2>&1; then
      scraped="$(curl -sf "http://127.0.0.1:${port}/metrics")" && break
    fi
    kill -0 "${cli_pid}" 2>/dev/null || break
    sleep 0.1
  done
  if ! wait "${cli_pid}"; then
    echo "profile: CLI smoke run failed" >&2
    cat "${out}/sweep.stderr" >&2
    return 1
  fi
  if [ -z "${scraped}" ]; then
    echo "profile: never scraped /metrics from the live CLI" >&2
    return 1
  fi
  case "${scraped}" in
    *"# EOF"*) : ;;
    *) echo "profile: /metrics is missing the OpenMetrics terminator" >&2
       return 1 ;;
  esac
  case "${scraped}" in
    *proc_rss_bytes*) : ;;
    *) echo "profile: /metrics is missing proc_rss_bytes" >&2; return 1 ;;
  esac
  [ -s "${out}/sweep.folded" ] || {
    echo "profile: empty folded profile" >&2; return 1; }
  jq -e '.schema == "gansec.profile.v1" and .samples >= 0' \
    "${out}/sweep.folded.json" >/dev/null || {
    echo "profile: sweep.folded.json is not a gansec.profile.v1 artifact" >&2
    return 1; }

  GANSEC_BENCH_OUT="${out}" GANSEC_BENCH_CACHE_DIR=build/profile-cache \
    build/bench/bench_perf_core \
    "--benchmark_filter=^BM_CganTrainStep(Profiled)?\$" \
    --benchmark_min_time=2 || return 1
  build/tools/gansec_benchdiff --check "${out}/BENCH_perf_core.json" \
    || return 1
  build/tools/gansec_benchdiff --threshold 0.5 \
    bench/baselines/BENCH_perf_core.json "${out}/BENCH_perf_core.json"
}
run_step "profile" profile_gate

# Streaming-monitor gate, two legs.
#
# Leg 1: smoke-run `gansec serve` (train a tiny model first, then drive a
# rate-limited loadgen through the online monitor) with the OpenMetrics
# endpoint up; scrape /healthz + /metrics while it runs and require the
# serve.* instruments to be present.
#
# Leg 2: the saturation bench in smoke mode, schema-checked and diffed
# against the committed baseline (generous threshold — hosts differ; the
# bench's own checks, e.g. sustains_8_streams, are absolute).
serve_gate() {
  local out=build/serve-out port=19465
  mkdir -p "${out}"
  build/tools/gansec train --model "${out}/serve.gsm" \
    --samples 6 --bins 8 --window 0.05 --iterations 20 \
    > "${out}/train.stdout" 2> "${out}/train.stderr" || {
    echo "serve: tiny training run failed" >&2
    cat "${out}/train.stderr" >&2
    return 1; }
  build/tools/gansec serve --model "${out}/serve.gsm" \
    --samples 6 --bins 8 --window 0.05 \
    --streams 3 --windows 30 --rate 10 --calibrate 5 \
    --expose "${port}" \
    > "${out}/serve.stdout" 2> "${out}/serve.stderr" &
  local cli_pid=$!
  local scraped=""
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${port}/healthz" >/dev/null 2>&1; then
      scraped="$(curl -sf "http://127.0.0.1:${port}/metrics")" \
        && case "${scraped}" in
             *serve_windows_scored_total*) break ;;
           esac
    fi
    kill -0 "${cli_pid}" 2>/dev/null || break
    sleep 0.1
  done
  if ! wait "${cli_pid}"; then
    echo "serve: online monitor run failed" >&2
    cat "${out}/serve.stderr" >&2
    return 1
  fi
  if [ -z "${scraped}" ]; then
    echo "serve: never scraped /metrics from the live monitor" >&2
    return 1
  fi
  case "${scraped}" in
    *"# EOF"*) : ;;
    *) echo "serve: /metrics is missing the OpenMetrics terminator" >&2
       return 1 ;;
  esac
  case "${scraped}" in
    *serve_windows_scored_total*) : ;;
    *) echo "serve: /metrics is missing serve_windows_scored_total" >&2
       return 1 ;;
  esac
  case "${scraped}" in
    *serve_latency_us*) : ;;
    *) echo "serve: /metrics is missing serve_latency_us" >&2; return 1 ;;
  esac
  grep -q "total:" "${out}/serve.stdout" || {
    echo "serve: summary table missing from stdout" >&2; return 1; }

  GANSEC_BENCH_SMOKE=1 GANSEC_BENCH_OUT="${out}" \
    GANSEC_BENCH_CACHE_DIR=build/serve-cache \
    build/bench/bench_serve || return 1
  build/tools/gansec_benchdiff --check "${out}/BENCH_serve.json" || return 1
  build/tools/gansec_benchdiff --threshold 0.5 \
    bench/baselines/BENCH_serve.json "${out}/BENCH_serve.json"
}
run_step "serve" serve_gate

# Incident-forensics gate, two legs.
#
# Leg 1: /incidentz on a live run — the monitor serves an on-demand
# gansec.incident.v1 bundle over HTTP while working.
#
# Leg 2: the black-box contract itself — kill -SEGV mid-run and require
# a schema-valid bundle with a non-empty trace-clock-ordered timeline,
# accepted by both gansec_benchdiff --check and gansec_incident.
incident_gate() {
  local out=build/incident-out port=19466
  mkdir -p "${out}"
  build/tools/gansec sweep --samples 6 --bins 8 --window 0.05 \
    --iterations 40 --threads 2 \
    --expose "${port}" --incident-out "${out}/demand.json" \
    > "${out}/live.stdout" 2> "${out}/live.stderr" &
  local cli_pid=$!
  local live=""
  for _ in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${port}/healthz" >/dev/null 2>&1; then
      live="$(curl -sf "http://127.0.0.1:${port}/incidentz")" && break
    fi
    kill -0 "${cli_pid}" 2>/dev/null || break
    sleep 0.1
  done
  if ! wait "${cli_pid}"; then
    echo "incident: live CLI run failed" >&2
    cat "${out}/live.stderr" >&2
    return 1
  fi
  [ -n "${live}" ] || {
    echo "incident: never fetched /incidentz from the live run" >&2
    return 1; }
  printf '%s' "${live}" | jq -e \
    '.schema == "gansec.incident.v1" and (.events | length) > 0' \
    >/dev/null || {
    echo "incident: /incidentz is not a gansec.incident.v1 bundle" >&2
    return 1; }

  rm -f "${out}/crash.json"
  build/tools/gansec sweep --samples 6 --bins 8 --window 0.05 \
    --iterations 2000 --threads 2 --incident-out "${out}/crash.json" \
    > "${out}/crash.stdout" 2> "${out}/crash.stderr" &
  local crash_pid=$!
  sleep 2
  kill -SEGV "${crash_pid}" 2>/dev/null
  wait "${crash_pid}"
  local rc=$?
  [ "${rc}" -eq 139 ] || {
    echo "incident: expected SIGSEGV death (139), got ${rc}" >&2
    return 1; }
  [ -s "${out}/crash.json" ] || {
    echo "incident: crash left no bundle behind" >&2; return 1; }
  build/tools/gansec_benchdiff --check "${out}/crash.json" || return 1
  build/tools/gansec_incident summarize "${out}/crash.json" || return 1
}
run_step "incident" incident_gate

# The checkpoint battery's acceptance bar is "typed errors, never UB" —
# run it under ASan when that tree exists, else fall back to release.
if [ "${RUN_ASAN}" = 1 ]; then
  run_step "ckpt-asan" ctest --test-dir build-asan -L ckpt --output-on-failure
else
  run_step "ckpt-label" ctest --test-dir build -L ckpt --output-on-failure
fi

echo
echo "==== quickcheck summary"
printf '%-20s %-6s %8s\n' "step" "result" "seconds"
FAILURES=0
for i in "${!STEPS[@]}"; do
  printf '%-20s %-6s %8s\n' "${STEPS[$i]}" "${RESULTS[$i]}" "${SECONDS_SPENT[$i]}"
  [ "${RESULTS[$i]}" = "FAIL" ] && FAILURES=$((FAILURES + 1))
done
echo
if [ "${FAILURES}" -gt 0 ]; then
  echo "quickcheck: ${FAILURES} step(s) FAILED"
  exit 1
fi
echo "quickcheck: all steps passed"
