#!/usr/bin/env python3
"""Self-check of pstap_bench (registered as ctest pstap_bench_smoke).

    smoke.py PSTAP_BENCH BENCHMARK_JSON OUT_DIR

Runs every workload of BENCHMARK.json at 3 CPIs in both modes and checks
that the result line carries every metric the file names for that mode,
with the unit it names, and that no CPI was dropped or wrong.
"""
import json
import subprocess
import sys


def check(exe, out_dir, workload, trace, expected):
    cmd = [exe, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--cpis", "3", "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"failed_cpi_frac {result.get('failed')}/{result.get('attempted')}")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']} printed as {got}, want unit {m['unit']}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"unlisted metrics {sorted(extra)}")
    return errors


def main():
    exe, spec_path, out_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errors = check(exe, out_dir, w["name"], trace, spec[key])
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{w['name']} --trace {trace}: {status}", flush=True)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
