#!/usr/bin/env python3
"""Compare a fresh benchmark JSON dump against a committed baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]

CI machines and the machine the baseline was recorded on differ in
absolute speed, so raw ns/op comparisons are meaningless. What should be
stable is the *shape*: every benchmark's current/baseline ratio moves by
roughly the same machine-speed factor. We estimate that factor as the
median ratio across all shared benchmarks, normalize each ratio by it,
and flag a regression only when a benchmark is more than ``threshold``
slower than the fleet-wide trend (default 25%).

A name that appears more than once (a run with
``--benchmark_repetitions``) is compared by the median of its records, so
one repetition slowed by a busy shared host does not fail the gate.

Bandwidth (bytes_per_second) is printed but not gated: every bench
processes a fixed byte count per iteration, so its bytes/s ratio is the
inverse of its time ratio (up to the wall vs CPU clock it was taken on)
and a second gate could only repeat the first one's verdict. Records
with a zero/missing bytes_per_second are warned about — they mean the
bench forgot SetBytesProcessed.

Exit status: 0 clean, 1 regression found, 2 usage/parse error.
"""

import argparse
import json
import sys

def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    runs = {}
    for rec in doc.get("benchmarks", []):
        name, ns = rec.get("name"), rec.get("ns_per_op", 0)
        if name and ns > 0:
            runs.setdefault(name, []).append(
                (ns, rec.get("bytes_per_second", 0) or 0))
    records = {name: (median([ns for ns, _ in reps]),
                      median([bps for _, bps in reps]))
               for name, reps in runs.items()}
    zero_bytes = [name for name, (_, bps) in records.items() if bps <= 0]
    if not records:
        print(f"compare_bench: no usable records in {path}", file=sys.stderr)
        sys.exit(2)
    if zero_bytes:
        print(f"WARNING: {len(zero_bytes)} record(s) in {path} report zero "
              f"bytes_per_second (missing SetBytesProcessed?): "
              f"{', '.join(sorted(zero_bytes))}")
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed slowdown vs the median trend (default 0.25)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    shared = sorted(set(base) & set(cur))
    if not shared:
        print("compare_bench: baseline and current share no benchmarks",
              file=sys.stderr)
        sys.exit(2)
    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"WARNING: {len(missing)} baseline benchmark(s) missing from "
              f"current run: {', '.join(missing)}")

    ratios = {name: cur[name][0] / base[name][0] for name in shared}
    trend = median(ratios.values())
    print(f"machine-speed trend (median current/baseline ratio): {trend:.3f}")
    print(f"{'benchmark':40s} {'base ns':>12s} {'cur ns':>12s} "
          f"{'ratio':>7s} {'vs trend':>9s} {'cur MB/s':>10s}")

    failures = []
    for name in shared:
        rel = ratios[name] / trend
        flag = ""
        if rel > 1.0 + args.threshold:
            flag = "  << REGRESSION"
            failures.append((name, rel))
        print(f"{name:40s} {base[name][0]:12.0f} {cur[name][0]:12.0f} "
              f"{ratios[name]:7.3f} {rel:9.3f} {cur[name][1] / 1e6:10.1f}{flag}")

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) more than "
              f"{args.threshold:.0%} slower than the machine trend:")
        for name, rel in failures:
            print(f"  {name}: {rel - 1:+.1%} vs trend")
        sys.exit(1)
    print(f"\nOK: all {len(shared)} shared benchmarks within "
          f"{args.threshold:.0%} of the machine trend")


if __name__ == "__main__":
    main()
