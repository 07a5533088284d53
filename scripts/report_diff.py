#!/usr/bin/env python3
"""Diff two RunReport documents and attribute latency deltas to stages.

Usage:
  report_diff.py BASELINE.json CURRENT.json [--threshold 0.10] [--top 3]
  report_diff.py --validate FILE.json [FILE2.json ...]

Diff mode pairs reports by label, compares end-to-end latency and
throughput, and attributes the latency delta to the task phases (and I/O
servers) that moved — output like:

  [report-diff] sim paragon-pfs16 embedded n=50: latency +12.0%
      pulse compression: +8.1e-03 s (compute p95 +31%)
      io server 3: service p50 2.10x

Every integer counter of the io and recovery sections that moved is
printed by name on a "counters:" line (e.g. io.chunks_stolen 0->9);
the keys come from the document, so a new counter needs no change here.

Exit codes: 0 = within threshold (or valid), 1 = regression above
threshold (or, with --validate, a schema violation), 2 = bad input
(unreadable file, not a RunReport document, wrong schema_version, no
matching labels).

Validate mode checks a document against the RunReport schema
(schema_version 1, see src/obs/report.hpp and DESIGN.md section 11):
required keys with the right types, histogram consistency
(count == sum of bucket counts, p50 <= p95 <= p99), bucket indices
in range and ascending, and every scalar counter of io and recovery a
non-negative number. Unknown keys are ignored by design — adding a key
is not a schema break.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1


def fail(msg, code=2):
    print(f"[report-diff] error: {msg}", file=sys.stderr)
    sys.exit(code)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or "reports" not in doc:
        fail(f"{path}: not a RunReport document (missing 'reports')")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"{path}: schema_version {doc.get('schema_version')!r}, "
             f"expected {SCHEMA_VERSION}")
    return doc


# --------------------------------------------------------------- validate --

def check(cond, path, where, what):
    if not cond:
        fail(f"{path}: {where}: {what}", code=1)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool)


def validate_counters(section, path, where, name):
    """Every scalar of an io/recovery section is a counter: a non-negative
    number. Objects and lists (histograms, servers) are checked apart."""
    for key, v in section.items():
        if isinstance(v, (dict, list)):
            continue
        check(isinstance(v, (int, float)) and not isinstance(v, bool)
              and v >= 0, path, where,
              f"{name}.{key} = {v!r} is not a non-negative number")


def validate_histogram(h, path, where):
    check(isinstance(h, dict), path, where, "histogram must be an object")
    for key, types in (("count", int), ("sum", (int, float)),
                       ("min", (int, float)), ("max", (int, float)),
                       ("p50", (int, float)), ("p95", (int, float)),
                       ("p99", (int, float)), ("buckets", list)):
        check(key in h, path, where, f"histogram missing '{key}'")
        check(isinstance(h[key], types), path, where,
              f"histogram '{key}' has wrong type")
    total = 0
    prev_index = -1
    for pair in h["buckets"]:
        check(isinstance(pair, list) and len(pair) == 2, path, where,
              "bucket entries must be [index, count] pairs")
        index, count = pair
        check(isinstance(index, int) and 0 <= index < 128, path, where,
              f"bucket index {index} out of range")
        check(index > prev_index, path, where, "bucket indices must ascend")
        check(isinstance(count, int) and count > 0, path, where,
              f"bucket count {count} must be a positive integer")
        prev_index = index
        total += count
    check(total == h["count"], path, where,
          f"count {h['count']} != bucket total {total}")
    if h["count"] > 0:
        check(h["min"] <= h["max"], path, where, "min > max")
        check(h["p50"] <= h["p95"] <= h["p99"], path, where,
              "quantiles not monotone (p50 <= p95 <= p99)")


def validate_report(r, path, index):
    where = f"reports[{index}]"
    check(isinstance(r, dict), path, where, "report must be an object")
    for key, types in (("label", str), ("kind", str), ("geometry", dict),
                       ("config", dict), ("totals", dict), ("tasks", list)):
        check(key in r, path, where, f"missing '{key}'")
        check(isinstance(r[key], types), path, where, f"'{key}' has wrong type")
    check(r["kind"] in ("functional", "sim"), path, where,
          f"unknown kind {r['kind']!r}")
    where = f"reports[{index}] ({r['label']!r})"
    for key in ("channels", "pulses", "ranges", "beams", "doppler_bins",
                "cube_bytes"):
        check(isinstance(r["geometry"].get(key), int), path, where,
              f"geometry.{key} missing or not an integer")
    for key in ("io_strategy", "simd_backend"):
        check(isinstance(r["config"].get(key), str), path, where,
              f"config.{key} missing or not a string")
    for key in ("stripe_factor", "cpis", "warmup", "total_nodes"):
        check(isinstance(r["config"].get(key), int), path, where,
              f"config.{key} missing or not an integer")
    for key in ("throughput_cpis_per_s", "latency_s", "wall_s", "cpu_s"):
        check(isinstance(r["totals"].get(key), (int, float)), path, where,
              f"totals.{key} missing or not a number")
    for t in r["tasks"]:
        check(isinstance(t.get("name"), str), path, where, "task missing name")
        check(isinstance(t.get("nodes"), int), path, where,
              f"task {t.get('name')!r} missing nodes")
        check(isinstance(t.get("phases"), list), path, where,
              f"task {t['name']!r} missing phases")
        for ph in t["phases"]:
            pwhere = f"{where} task {t['name']!r} phase {ph.get('name')!r}"
            check(isinstance(ph.get("name"), str), path, pwhere,
                  "phase missing name")
            check(isinstance(ph.get("mean_s"), (int, float)), path, pwhere,
                  "phase missing mean_s")
            validate_histogram(ph.get("hist"), path, pwhere)
    if "io" in r:
        io = r["io"]
        check(isinstance(io, dict), path, where, "'io' must be an object")
        validate_counters(io, path, where, "io")
        for key in ("queue_depth", "service_time", "submit_latency"):
            validate_histogram(io.get(key), path, f"{where} io.{key}")
        check(isinstance(io.get("servers"), list), path, where,
              "io.servers missing")
        for s in io["servers"]:
            check(isinstance(s, dict) and is_count(s.get("id")), path, where,
                  "io server missing id")
            validate_histogram(s.get("service_time"), path,
                               f"{where} io server {s.get('id')}")
    if "recovery" in r:
        check(isinstance(r["recovery"], dict), path, where,
              "'recovery' must be an object")
        validate_counters(r["recovery"], path, where, "recovery")


def cmd_validate(paths):
    for path in paths:
        doc = load_document(path)
        labels = set()
        for i, r in enumerate(doc["reports"]):
            validate_report(r, path, i)
            if r["label"] in labels:
                print(f"[report-diff] warning: {path}: duplicate label "
                      f"{r['label']!r} (diff uses the first)", file=sys.stderr)
            labels.add(r["label"])
        print(f"[report-diff] {path}: OK "
              f"({len(doc['reports'])} report(s), schema v{SCHEMA_VERSION})")
    return 0


# ------------------------------------------------------------------- diff --

def by_label(doc):
    out = {}
    for r in doc["reports"]:
        out.setdefault(r["label"], r)  # first occurrence wins
    return out


def ratio(cur, base):
    if base == 0:
        return None
    return cur / base


def fmt_pct(r):
    return f"{(r - 1.0) * 100.0:+.1f}%"


def phase_quantiles(phase):
    h = phase["hist"]
    if h["count"] > 0:
        return h["p50"], h["p95"]
    # Sim phases carry modeled scalars with empty histograms.
    return phase["mean_s"], phase["mean_s"]


def task_total(task):
    # Prefer the measured phase means; sim's "service" phase duplicates
    # receive+compute+send in the clean case, so only count the classic
    # three toward the task total.
    return sum(p["mean_s"] for p in task["phases"]
               if p["name"] in ("receive", "compute", "send"))


def diff_tasks(base, cur):
    """Per-task contribution to the latency delta, largest first."""
    base_tasks = {t["name"]: t for t in base["tasks"]}
    rows = []
    for t in cur["tasks"]:
        bt = base_tasks.get(t["name"])
        if bt is None:
            continue
        delta = task_total(t) - task_total(bt)
        details = []
        base_phases = {p["name"]: p for p in bt["phases"]}
        for p in t["phases"]:
            bp = base_phases.get(p["name"])
            if bp is None:
                continue
            _, bp95 = phase_quantiles(bp)
            _, cp95 = phase_quantiles(p)
            r = ratio(cp95, bp95)
            if r is not None and abs(r - 1.0) > 0.05:
                details.append(f"{p['name']} p95 {fmt_pct(r)}")
        rows.append((delta, t["name"], details))
    rows.sort(key=lambda row: -abs(row[0]))
    return rows


def diff_servers(base, cur):
    """Per-I/O-server service-time ratios (p50), largest first."""
    if "io" not in base or "io" not in cur:
        return []
    base_servers = {s["id"]: s for s in base["io"]["servers"]}
    rows = []
    for s in cur["io"]["servers"]:
        bs = base_servers.get(s["id"])
        if bs is None:
            continue
        bh, ch = bs["service_time"], s["service_time"]
        if bh["count"] == 0 or ch["count"] == 0:
            continue
        r = ratio(ch["p50"], bh["p50"])
        if r is not None and abs(r - 1.0) > 0.10:
            rows.append((r, s["id"]))
    rows.sort(key=lambda row: -abs(row[0] - 1.0))
    return rows


def diff_counters(base, cur):
    """Every integer counter of the io and recovery sections whose value
    moved between the two runs, by name. Empty string when none moved."""
    parts = []
    for section in ("io", "recovery"):
        base_sec, cur_sec = base.get(section, {}), cur.get(section, {})
        for key, c in cur_sec.items():
            b = base_sec.get(key, 0)
            if is_count(c) and is_count(b) and b != c:
                parts.append(f"{section}.{key} {b}->{c}")
    return ", ".join(parts)


def cmd_diff(baseline_path, current_path, threshold, top):
    base_doc = load_document(baseline_path)
    cur_doc = load_document(current_path)
    base_by, cur_by = by_label(base_doc), by_label(cur_doc)
    common = [label for label in cur_by if label in base_by]
    if not common:
        fail("no matching report labels between the two documents")

    regressed = False
    for label in common:
        base, cur = base_by[label], cur_by[label]
        lat_r = ratio(cur["totals"]["latency_s"], base["totals"]["latency_s"])
        thr_r = ratio(base["totals"]["throughput_cpis_per_s"],
                      cur["totals"]["throughput_cpis_per_s"])
        headline = []
        if lat_r is not None:
            headline.append(f"latency {fmt_pct(lat_r)}")
        if thr_r is not None:
            headline.append(f"throughput {fmt_pct(1.0 / thr_r)}")
        bad = ((lat_r is not None and lat_r > 1.0 + threshold) or
               (thr_r is not None and thr_r > 1.0 + threshold))
        marker = "REGRESSION" if bad else "ok"
        print(f"[report-diff] {label}: {', '.join(headline) or 'no totals'} "
              f"[{marker}]")
        # Attribution: always shown on regression, and for any task that
        # moved more than the threshold even when totals held (a shifted
        # bottleneck can hide a stage regression).
        for delta, name, details in diff_tasks(base, cur)[:top]:
            if not bad and abs(delta) < threshold * max(
                    base["totals"]["latency_s"], 1e-12):
                continue
            note = f" ({', '.join(details)})" if details else ""
            print(f"    {name}: {delta:+.3e} s{note}")
        for r, server_id in diff_servers(base, cur)[:top]:
            print(f"    io server {server_id}: service p50 {r:.2f}x")
        counters = diff_counters(base, cur)
        if counters:
            print(f"    counters: {counters}")
        if bad:
            regressed = True

    missing = [label for label in base_by if label not in cur_by]
    for label in missing:
        print(f"[report-diff] warning: baseline label {label!r} absent from "
              f"current document", file=sys.stderr)
    print(f"[report-diff] compared {len(common)} report(s), "
          f"threshold {threshold * 100:.0f}%: "
          f"{'REGRESSION' if regressed else 'PASS'}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+",
                    help="BASELINE CURRENT, or files for --validate")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check the given documents instead of diffing")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative regression gate (default 0.10 = 10%%)")
    ap.add_argument("--top", type=int, default=3,
                    help="max attributed stages/servers per report")
    args = ap.parse_args()

    if args.validate:
        return cmd_validate(args.files)
    if len(args.files) != 2:
        ap.error("diff mode takes exactly two files: BASELINE CURRENT")
    return cmd_diff(args.files[0], args.files[1], args.threshold, args.top)


if __name__ == "__main__":
    sys.exit(main())
