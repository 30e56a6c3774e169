#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

Builds gansec_bench from the sources of the checkout it sits in, runs one
workload in its own process, and prints the result as one JSON object on
the last line of standard output:

    python3 bench/e2e/run.py --workload serve-saturate --seed 2019 \\
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json;
--trace 1 runs the traced variant and reports the per-layer metrics.
Builds, artifacts and traces go under $CARGO_TARGET_DIR (default
.bench_build) in the checkout. Exits non-zero, without a result, when the
build fails or the run reports smoke scale; exits 1 after the result when
a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("serve-saturate", "serve-realtime", "offline")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def build(bdir):
    """Configures and builds incrementally (both are quick once built);
    compiler temporaries stay in the build directory, output goes to
    stderr."""
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "gansec_bench",
                    "-j", "4"], stdout=sys.stderr, env=env, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(bdir, "gansec_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--out", out]
    if args.trace:
        cmd += ["--trace",
                os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: gansec_bench exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2

    # gansec_bench prints `name value unit` lines; echo them for people.
    values = {}
    for line in proc.stdout.splitlines():
        print(line)
        parts = line.split()
        if len(parts) == 3:
            try:
                values[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    if not all(k in values for k in ("attempted", "failed", "correct",
                                     "run.smoke")):
        print(f"run.py: gansec_bench exited {proc.returncode} without a "
              "result", file=sys.stderr)
        return 2
    if values["run.smoke"][0] != 0:
        print("run.py: refusing a smoke-scale result", file=sys.stderr)
        return 2

    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in values or values[name][1] != spec["unit"]:
            print(f"run.py: metric {name} [{spec['unit']}] missing from the "
                  "output", file=sys.stderr)
            return 2
        metrics[name] = {"value": values[name][0], "unit": spec["unit"]}
    correct = proc.returncode == 0 and values["correct"][0] == 1
    print(json.dumps({"correct": correct,
                      "attempted": int(values["attempted"][0]),
                      "failed": int(values["failed"][0]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
