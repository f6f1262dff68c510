#!/usr/bin/env python3
"""Build and run the cgraph wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload khop_closed --seed 1 --seconds 25 --trace 0

Builds the benchmark package in perfbench/ (which compiles the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when unset, then runs one
workload. The build log and the run record go to stderr; the last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("khop_closed", "point_serve", "khop_under_writes")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 120  # set-up, warm-up and checks around the timed loop


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + RUN_SLACK_S,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"unreadable result line: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
