#!/usr/bin/env python3
"""Builds and runs the CERL end-to-end benchmark.

    python3 cerlbench/run.py --workload catchup|skewed_open|serve_durable \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built from source
into .bench_build/ (configured on the first run, incremental afterwards),
then run once. Everything it prints passes through; the last line is one
JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics of BENCHMARK.json for --trace 0, its per-layer metrics
for --trace 1 (which also writes a Chrome trace-event file under
.bench_build/out/).

Exit codes: 0 on a correct run; 1 when a correctness check failed (the
result line then carries "correct": false and no metrics); 2 when the
benchmark could not be built or run (no result line).
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "cerl_bench")
# A run measures for --seconds plus set-up, drains and recovery; this caps
# it well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "cerl_bench"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as error:
            log(f"run.py: cannot run {step[0]}: {error}")
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(step)}")
            return False
    return True


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def finite(value):
    # Misses are reported as +inf; JSON has no infinity.
    return value if math.isfinite(value) else math.copysign(1e300, value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        print("\n".join(lines), flush=True)
        log(f"run.py: benchmark exited with code {done.returncode}")
        return 2
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1

    metrics = {}
    for name in metric_names(args.trace):
        if name not in result["metrics"]:
            log(f"run.py: the benchmark did not report metric {name}")
            return 2
        m = result["metrics"][name]
        metrics[name] = {"value": finite(m["value"]), "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
