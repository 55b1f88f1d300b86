#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh bench archive against its committed
baseline and fail on regressions beyond a threshold.

Two archive shapes are understood:

  gbench  google-benchmark --json output (BENCH_rt_primitives.json):
          one entry per benchmark name, metric = real_time, lower is
          better. Wall-clock times only compare on like hosts, so the
          two archives' `context` must agree on the host fingerprint
          (num_cpus, library_build_type); on a mismatch the gate fails
          and names each differing field instead of comparing times.
  fig1    JSON-lines table rows (BENCH_fig1_micro.json): one row per
          (section, scheme), metrics = the numeric speedup columns
          (P=1..P=32, Ts/T1), higher is better. These come from the
          deterministic simulator, so they are stable across hosts.

Usage:
  perf_gate.py --current build/BENCH_x.json \
               --baseline bench/baseline/BENCH_x.json --format gbench

  --threshold PCT   allowed regression, percent (default 15; env
                    HLS_PERF_THRESHOLD overrides the default)
  HLS_PERF_BASELINE_UPDATE=1   rewrite the baseline from --current and
                               exit 0 (commit the result)

A gbench fingerprint mismatch fails the gate: re-anchor the baseline on
the host that runs the gate (HLS_PERF_BASELINE_UPDATE=1 from a build of
the commit the baseline should describe).

A benchmark present in the baseline but missing from the current run
fails the gate (silent coverage loss reads as a pass otherwise); new
benchmarks only note themselves until the baseline is regenerated.
"""

import argparse
import json
import os
import shutil
import sys


# google-benchmark context fields that must match between a gbench
# baseline and the current run: the core count the multi-worker benches
# scale with, and the benchmark library's own build type.
FINGERPRINT_FIELDS = ("num_cpus", "library_build_type")


def gbench_fingerprint(path):
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    return {k: ctx.get(k) for k in FINGERPRINT_FIELDS}


def fingerprint_mismatches(base_path, cur_path):
    """Lines naming each fingerprint field that differs (a field missing
    from either archive counts as differing)."""
    base = gbench_fingerprint(base_path)
    cur = gbench_fingerprint(cur_path)
    return [f"{k}: baseline={base[k]!r} current={cur[k]!r}"
            for k in FINGERPRINT_FIELDS
            if base[k] is None or cur[k] is None or base[k] != cur[k]]


def load_gbench(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows; compare raw runs only
        out[b["name"]] = {"real_time": float(b["real_time"])}
    return out


def load_fig1(path):
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            key = f'{row.get("section", "?")} :: {row.get("scheme", "?")}'
            out[key] = {
                k: float(v)
                for k, v in row.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--current", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--format", required=True, choices=["gbench", "fig1"])
    ap.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("HLS_PERF_THRESHOLD", "15")),
    )
    args = ap.parse_args()

    if os.environ.get("HLS_PERF_BASELINE_UPDATE") == "1":
        os.makedirs(os.path.dirname(args.baseline) or ".", exist_ok=True)
        shutil.copyfile(args.current, args.baseline)
        print(f"perf gate: baseline updated from {args.current}")
        return 0

    if not os.path.exists(args.baseline):
        print(
            f"perf gate: no baseline at {args.baseline}; generate one with\n"
            f"  HLS_PERF_BASELINE_UPDATE=1 {' '.join(sys.argv)}",
            file=sys.stderr,
        )
        return 1

    if args.format == "gbench":
        mismatches = fingerprint_mismatches(args.baseline, args.current)
        if mismatches:
            print(
                f"perf gate FAILED: host fingerprint of {args.current} does "
                f"not match {args.baseline}; times are not comparable:\n  "
                + "\n  ".join(mismatches)
                + "\nre-anchor the baseline on this host with "
                "HLS_PERF_BASELINE_UPDATE=1",
                file=sys.stderr,
            )
            return 1

    load = load_gbench if args.format == "gbench" else load_fig1
    # gbench metrics are times (lower is better); fig1 rows are speedups.
    lower_is_better = args.format == "gbench"
    base = load(args.baseline)
    cur = load(args.current)
    tol = args.threshold / 100.0

    failures = []
    compared = 0
    for name in sorted(base):
        if name not in cur:
            failures.append(f"MISSING  {name} (in baseline, not in current run)")
            continue
        for metric, b in sorted(base[name].items()):
            c = cur[name].get(metric)
            if c is None or b == 0:
                continue
            compared += 1
            change = (c - b) / b * 100.0
            regressed = change > args.threshold if lower_is_better \
                else change < -args.threshold
            mark = "FAIL" if regressed else "ok"
            line = (f"{mark:4s} {name} [{metric}] "
                    f"baseline={b:.4g} current={c:.4g} ({change:+.1f}%)")
            if regressed:
                failures.append(line)
                print(line)
            elif os.environ.get("HLS_PERF_VERBOSE") == "1":
                print(line)
    for name in sorted(set(cur) - set(base)):
        print(f"note: new benchmark not in baseline: {name}")

    if failures:
        print(
            f"perf gate FAILED: {len(failures)} regression(s) beyond "
            f"{args.threshold:.0f}% across {compared} compared metrics "
            f"({args.current} vs {args.baseline})",
            file=sys.stderr,
        )
        return 1
    print(
        f"perf gate ok: {compared} metrics within {args.threshold:.0f}% "
        f"of {args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
