#!/usr/bin/env python3
"""Build and run the loop benchmark.

    python3 loopbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds loopbench/ (which
compiles the library from src/) into .bench_build/loopbench, runs the
binary, and passes its output through. The last stdout line is the JSON
result. Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loopbench")
WORKLOADS = ("small_loops", "fine_grain", "nested_loops", "nas")


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            sys.stderr.write("loopbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    if not build():
        return 1
    spans = os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "loopbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workers", str(args.workers), "--spans-out", spans]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        sys.stderr.write("loopbench: run timed out\n")
        return 1
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.stderr.write("loopbench: run failed with code %d\n" % r.returncode)
        return 1
    try:
        result = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(r.stdout)
        sys.stderr.write("loopbench: malformed result line\n")
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
