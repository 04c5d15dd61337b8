#!/usr/bin/env python3
"""Build and run the serving benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload ntwe-burst --seed 1 --seconds 30 --trace 0

Builds the `eie` library and the perfbench binary from source into
.bench_build/perfbench (CMake, Release), runs one workload, checks that
the metrics it printed are exactly the ones BENCHMARK.json names for
the run's mode (end_to_end untraced, per_layer traced), and prints the
result summary as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The stamped result file (seed, commit, compiler, -march, kernel_simd,
hardware_threads) is kept under .bench_build/perfbench-results/. Build
output and the binary's progress go to standard error. The exit status
is 0 only for a correct run; a checkout without the library's sources
fails before building.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
BINARY_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the EIE sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(result, contract, trace):
    """Return a list of ways @p result breaks the contract."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    expected = contract["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in expected]
    if list(result["metrics"]) != names:
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        problems.append("metric names differ: missing %s, extra %s"
                        % (missing, extra))
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is not None and got.get("unit") != metric["unit"]:
            problems.append("%s has unit %s, BENCHMARK.json says %s"
                            % (metric["name"], got.get("unit"),
                               metric["unit"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run (one set-up, few frames)")
    args = parser.parse_args()

    contract = load_contract()
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %s (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(workloads)))
    binary = build()

    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    out = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", out,
               "--scratch", scratch, "--commit", git_commit()]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit status %d)" % run.returncode)
    problems = check_result(result, contract, args.trace)
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    print(json.dumps(result))
    if problems or run.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
