#!/usr/bin/env python3
"""Tiny-size self-test of the end-to-end benchmark.

    python3 cerlbench/selftest.py

Builds the benchmark as run.py does, then checks, at tiny sizes:
  1. every workload completes untraced and traced, passes its correctness
     checks, and reports every metric BENCHMARK.json names; a traced run
     writes a parseable Chrome trace-event file;
  2. each correctness check trips when the value it expects is perturbed:
     the run exits 1, names the failed check, and reports no metrics;
  3. a repeated run at the same seed reproduces pehe_new and pehe_old
     bitwise, and on skewed_open offers the identical arrival schedule.
Exits 0 when every case passes.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (shares the build step and paths)

WORKLOADS = ("catchup", "skewed_open", "serve_durable")
# Perturbation -> text of the check that must fail.
PERTURBATIONS = {
    "query": "query: tenant",
    "fingerprint": "recover:",
    "accounting": "accounting: tenant",
    "pehe": "pehe_new / pehe_old are not finite",
}
OUT_DIR = os.path.join(run.BUILD_DIR, "selftest")


def bench(workload, trace=0, seed=7, perturb=None):
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny",
               "--out-dir", OUT_DIR]
    if perturb:
        command += ["--perturb", perturb]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    lines = done.stdout.rstrip("\n").split("\n")
    return done.returncode, lines, json.loads(lines[-1])


def main():
    if not run.build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench(workload, trace)
            missing = [m["name"] for m in spec[key]
                       if m["name"] not in result["metrics"]]
            expect(code == 0 and result["correct"] and not missing,
                   f"{workload} trace={trace} completes with every {key} "
                   f"metric (missing: {missing})")
            if trace:
                path = os.path.join(OUT_DIR, f"trace-{workload}-seed7.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                expect(len(events) > 0 and all("self_us" in e["args"]
                                               for e in events),
                       f"{workload} trace file has spans with self time")

        for perturb, text in PERTURBATIONS.items():
            code, lines, result = bench(workload, perturb=perturb)
            tripped = any(line.startswith("CHECK FAILED: " + text)
                          for line in lines)
            expect(code == 1 and not result["correct"]
                   and not result["metrics"] and tripped,
                   f"{workload} --perturb {perturb} trips its check")

        _, _, first = bench(workload, seed=11)
        _, _, second = bench(workload, seed=11)
        same = all(first["metrics"][m]["value"] == second["metrics"][m]["value"]
                   for m in ("pehe_new", "pehe_old"))
        if workload == "skewed_open":
            same = same and (first["context"]["schedule_fingerprint"] ==
                             second["context"]["schedule_fingerprint"])
        expect(same, f"{workload} repeats pehe (and schedule) at one seed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
