#!/usr/bin/env python3
"""Smoke test of the serving benchmark.

Run from the root of the repository:

    python3 perfbench/smoke.py

Runs a tiny version (--smoke: one set-up, few frames, one second) of
every workload in BENCHMARK.json, untraced and traced, through
perfbench/run.py, and checks for each run that

  - it exits 0 and reports correct (every response bit-exact);
  - it emits exactly the metrics BENCHMARK.json names for the mode,
    in order and with their units, each a finite number, and the
    untraced ones all positive;
  - its stamped result file carries the seed, the commit and the
    compiler / -march / kernel_simd / hardware_threads stamps;
  - a traced run exercises at least one per-layer metric.

Exits 1 listing every failed check.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
STAMPS = ("seed", "git_commit", "compiler", "march", "kernel_simd",
          "hardware_threads")
SEED = 1


def check_run(contract, workload, trace):
    """Return the failed checks of one tiny run."""
    run = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if run.returncode != 0:
        return ["exit status %d: %s" % (run.returncode,
                                        run.stderr.strip()[-800:])]
    problems = []
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        problems.append("not correct: %d of %d failed"
                        % (result["failed"], result["attempted"]))
    expected = contract["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in expected] != list(got):
        problems.append("metric names or order differ from BENCHMARK.json")
    for metric in expected:
        entry = got.get(metric["name"])
        if entry is None:
            continue
        value = entry["value"]
        if entry["unit"] != metric["unit"]:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (metric["name"], entry["unit"],
                               metric["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: not a finite number" % metric["name"])
        elif not trace and value <= 0:
            problems.append("%s: %r is not positive" % (metric["name"],
                                                        value))

    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                        % (workload, SEED, trace))
    with open(path) as f:
        stamped = json.load(f)
    for stamp in STAMPS:
        if stamp not in stamped:
            problems.append("result file lacks the %s stamp" % stamp)
    if trace and len(stamped["not_exercised"]) >= len(expected):
        problems.append("traced run exercised no per-layer metric")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    failures = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            problems = check_run(contract, workload, trace)
            label = "%s trace=%d" % (workload, trace)
            print(("ok    " if not problems else "FAIL  ") + label)
            for problem in problems:
                print("      " + problem)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
