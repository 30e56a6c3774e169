#!/usr/bin/env bash
# Repeats the end-to-end benchmark and prints the spread of every metric.
#
#   bench/e2e/repeat.sh [-n RUNS] [-s FIRST_SEED] [-t SECONDS] [-T]
#                       [-o FILE] [-c EARLIER_FILE] [WORKLOAD...]
#
# Runs every workload (default: all three) RUNS times (default 5) through
# run.py, with seeds FIRST_SEED, FIRST_SEED+1, ... (default 1), reversing
# the workload order every other round so slow drift of the host does not
# always land on the same workload. Every `name value unit` line a run
# prints is appended to FILE (default $CARGO_TARGET_DIR or .bench_build,
# then repeat-<time>.tsv). -T runs the traced variant.
#
# The summary gives, per workload and metric, the median, the quartiles
# (Python's statistics.quantiles(values, n=4)) and IQR/median. An
# end-to-end metric is marked WIDE when IQR/median exceeds a third of its
# BENCHMARK.json bound. With -c, every end-to-end median is compared with
# the earlier file's (REGRESSED when worse by more than the bound), and the
# seed-determined numbers (detect.*, leak_margin, failed, correct) must be
# identical seed by seed; a file holding smoke-scale runs is refused.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=5
first_seed=1
seconds=$(python3 -c 'import json;print(json.load(open("BENCHMARK.json"))["run_seconds"])' 2>/dev/null || echo 30)
trace=0
out=""
against=""
while getopts "n:s:t:To:c:" opt; do
  case "$opt" in
    n) runs=$OPTARG ;;
    s) first_seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    T) trace=1 ;;
    o) out=$OPTARG ;;
    c) against=$OPTARG ;;
    *) sed -n '2,20p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
[[ ${#workloads[@]} -eq 0 ]] && workloads=(serve-saturate serve-realtime offline)

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
out=${out:-$build/repeat-$(date +%Y%m%d-%H%M%S).tsv}

for ((round = 0; round < runs; round++)); do
  seed=$((first_seed + round))
  order=("${workloads[@]}")
  if ((round % 2 == 1)); then
    order=()
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do order+=("${workloads[i]}"); done
  fi
  for w in "${order[@]}"; do
    echo "[repeat] round $round: $w seed $seed" >&2
    status=0
    lines=$(python3 bench/e2e/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" 2>/dev/null) || status=$?
    if ((status != 0)); then
      echo "[repeat] $w seed $seed exited $status" >&2
    fi
    awk -v r="$round" -v w="$w" -v s="$seed" \
      'NF == 3 && $2 ~ /^-?[0-9.eE+-]+$/ {print r "\t" w "\t" s "\t" $1 "\t" $2 "\t" $3}' \
      <<<"$lines" >>"$out"
  done
done
echo "[repeat] results in $out" >&2

python3 - "$out" "$against" <<'EOF'
import collections
import json
import statistics
import sys

def load(path):
    rows = collections.defaultdict(list)   # (workload, metric) -> [(seed, value)]
    with open(path) as f:
        for line in f:
            _, w, seed, name, value, _unit = line.rstrip("\n").split("\t")
            rows[(w, name)].append((int(seed), float(value)))
    return rows

def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")

spec = json.load(open("BENCHMARK.json"))
e2e = {m["name"]: m for m in spec["end_to_end"]}
rows = load(sys.argv[1])
print(f"{'workload':16} {'metric':28} {'n':>3} {'median':>12} {'q1':>12} "
      f"{'q3':>12} {'iqr/med':>8}")
for (w, name), pairs in sorted(rows.items()):
    values = [v for _, v in pairs]
    med, q1, q3, rel = spread(values)
    flag = ""
    if name in e2e and rel > e2e[name]["bound"] / 3:
        flag = " WIDE"
    print(f"{w:16} {name:28} {len(values):3d} {med:12.6g} {q1:12.6g} "
          f"{q3:12.6g} {rel:8.4f}{flag}")

if sys.argv[2]:
    earlier = load(sys.argv[2])
    for path, table in ((sys.argv[1], rows), (sys.argv[2], earlier)):
        if any(v != 0 for (_, name), pairs in table.items()
               if name == "run.smoke" for _, v in pairs):
            sys.exit(f"{path} holds smoke-scale runs; refusing to compare")
    exact = ("detect.tpr", "detect.fpr", "leak_margin", "failed", "correct")
    bad = 0
    print("\ncomparison with", sys.argv[2])
    for (w, name), pairs in sorted(rows.items()):
        if (w, name) not in earlier:
            continue
        if name in e2e:
            a = statistics.median(v for _, v in earlier[(w, name)])
            b = statistics.median(v for _, v in pairs)
            change = (b - a) / a
            worse = -change if e2e[name]["better"] == "higher" else change
            ok = worse <= e2e[name]["bound"]
            bad += not ok
            print(f"  {w:16} {name:28} {a:12.6g} -> {b:12.6g} "
                  f"{change:+8.2%} {'ok' if ok else 'REGRESSED'}")
        elif name in exact:
            a = dict(earlier[(w, name)])
            b = dict(pairs)
            same = all(a[s] == b[s] for s in a.keys() & b.keys())
            bad += not same
            print(f"  {w:16} {name:28} {'identical' if same else 'DIFFERS'}")
    sys.exit(1 if bad else 0)
EOF
