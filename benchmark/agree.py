#!/usr/bin/env python3
"""Check that two result sets agree within the BENCHMARK.json bounds.

    python3 benchmark/agree.py A B [--spec BENCHMARK.json]

A and B are directories with one file per workload, <workload>.jsonl, each
line the result line (the last line of output) of one run:

    for seed in 1 2 3; do
      python3 benchmark/run.py --workload paper-embedded --seed $seed \\
          --seconds 10 --trace 0 | tail -n 1 >> A/paper-embedded.jsonl
    done

For every workload and end-to-end metric, B's median may differ from A's
by at most the metric's bound, as a share of A's median. Every run must be
correct. One row per (workload, metric) shows each side's median and its
spread (interquartile range over the median). Exit status 1 on any
disagreement, missing workload or incorrect run.
"""
import argparse
import json
import os
import statistics
import sys


def load(directory, workload):
    path = os.path.join(directory, workload + ".jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)

    bad = 0
    print(f"{'workload':20} {'metric':18} {'median A':>12} {'spread':>7} "
          f"{'median B':>12} {'spread':>7} {'B vs A':>8} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"A": load(args.a, workload), "B": load(args.b, workload)}
        for side, results in runs.items():
            if not results:
                print(f"{workload:20} no runs in {side}")
                bad += 1
            for r in results:
                if not r["correct"] or r["failed"]:
                    print(f"{workload:20} {side}: {r['failed']} of {r['attempted']} CPIs failed")
                    bad += 1
        if not runs["A"] or not runs["B"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in runs["A"]]
            vb = [r["metrics"][name]["value"] for r in runs["B"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            ok = abs(change) <= metric["bound"]
            bad += not ok
            print(f"{workload:20} {name:18} {ma:12.6g} {spread(va):7.1%} {mb:12.6g} "
                  f"{spread(vb):7.1%} {change:+8.1%} {metric['bound']:6.0%}"
                  f"{'' if ok else '  DISAGREE'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
