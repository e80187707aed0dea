#!/usr/bin/env python3
"""Telemetry acceptance checker (ctest helper).

Validates a `--metrics-out` / MSSR_METRICS_OUT Prometheus textfile:

1. The file parses as the text exposition format: every sample line
   belongs to a `# TYPE`-declared metric, each family has one TYPE
   line and its samples form one group, label values escape backslash,
   double quote and newline, values are finite numbers, and histogram
   bucket counts are cumulative and end in +Inf == _count.
2. Every expected mssr_* metric family is present. With --stats the
   file is a `mssr_run --stats-out X.prom` file instead, and the six
   stats families are expected.
3. With --bench BENCH_batch.json, the end-of-run counters reconcile
   EXACTLY with the final report: jobs done == number of result
   records, total instructions == sum of per-record "insts", and
   checkpoint hits == count of records with "ckpt_hit": true. The
   counters are maintained at job granularity, so any drift here means
   the telemetry lies about the run.

Usage: check_telemetry.py PROM_FILE [--stats] [--bench BENCH_batch.json]
Exits non-zero (with a named diagnostic) on any violation.
"""

import argparse
import json
import math
import re
import sys

EXPECTED_FAMILIES = [
    "mssr_batch_jobs_total",
    "mssr_batch_jobs_done_total",
    "mssr_batch_jobs_running",
    "mssr_batch_insts_total",
    "mssr_batch_ckpt_hits_total",
    "mssr_batch_kips",
    "mssr_ckpt_store_hits_total",
    "mssr_ckpt_store_misses_total",
    "mssr_ckpt_store_bytes_read_total",
    "mssr_ckpt_store_bytes_written_total",
    "mssr_host_peak_rss_kb",
    "mssr_job_host_seconds",
]

# The families of a --stats-out .prom file.
STATS_FAMILIES = [
    "mssr_cycles",
    "mssr_insts",
    "mssr_ipc",
    "mssr_cpi_slots",
    "mssr_funnel_stage",
    "mssr_funnel_kills",
]


# One label: its value escapes backslash, double quote and newline.
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
                    r"(\{(?:%s(?:,%s)*,?)?\})?\s+(\S+)$" % (LABEL, LABEL))


def parse_prom(path):
    """Returns ({family: type}, {sample_name_with_labels: value})."""
    types = {}
    samples = {}
    errors = []
    done = set()    # families whose sample group has ended
    current = None  # family of the group being read
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram"):
                errors.append("%s:%d: malformed TYPE line: %s"
                              % (path, lineno, line))
                continue
            if parts[2] in types:
                errors.append("%s:%d: second TYPE line for %s"
                              % (path, lineno, parts[2]))
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE.match(line)
        if not m:
            errors.append("%s:%d: unparseable sample line: %s"
                          % (path, lineno, line))
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            v = float(value)
        except ValueError:
            errors.append("%s:%d: non-numeric value %r" % (path, lineno, value))
            continue
        if math.isnan(v):
            errors.append("%s:%d: NaN sample value" % (path, lineno))
            continue
        family = re.sub(r"_(bucket|sum|count)$", "", name) \
            if name.endswith(("_bucket", "_sum", "_count")) else name
        if family not in types and name not in types:
            errors.append("%s:%d: sample %s has no # TYPE declaration"
                          % (path, lineno, name))
        if name in types:
            family = name
        if family != current:
            if family in done:
                errors.append("%s:%d: samples of %s are not in one group"
                              % (path, lineno, family))
            if current is not None:
                done.add(current)
            current = family
        samples[name + labels] = v
    return types, samples, errors


def check_histograms(path, types, samples):
    errors = []
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []
        for key, v in samples.items():
            m = re.match(re.escape(family) + r'_bucket\{le="([^"]+)"\}$', key)
            if m:
                le = math.inf if m.group(1) == "+Inf" else float(m.group(1))
                buckets.append((le, v))
        buckets.sort()
        if not buckets or buckets[-1][0] != math.inf:
            errors.append("%s: histogram %s lacks a +Inf bucket"
                          % (path, family))
            continue
        counts = [v for _, v in buckets]
        if counts != sorted(counts):
            errors.append("%s: histogram %s buckets are not cumulative"
                          % (path, family))
        count = samples.get(family + "_count")
        if count is None or buckets[-1][1] != count:
            errors.append("%s: histogram %s +Inf bucket (%s) != _count (%s)"
                          % (path, family, buckets[-1][1], count))
    return errors


def reconcile(prom_path, samples, bench_path):
    """End-of-run counters must match the final report exactly."""
    with open(bench_path, encoding="utf-8") as f:
        report = json.load(f)
    results = report.get("results", [])
    expected = {
        "mssr_batch_jobs_done_total": len(results),
        "mssr_batch_insts_total": sum(r.get("insts", 0) for r in results),
        "mssr_batch_ckpt_hits_total":
            sum(1 for r in results if r.get("ckpt_hit") is True),
    }
    errors = []
    for name, want in expected.items():
        got = samples.get(name)
        if got != want:
            errors.append(
                "%s: %s is %s but %s implies exactly %s"
                % (prom_path, name, got, bench_path, want))
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("prom_file")
    ap.add_argument("--bench", default=None,
                    help="BENCH_batch.json to reconcile counters against")
    ap.add_argument("--stats", action="store_true",
                    help="PROM_FILE is a mssr_run --stats-out .prom file")
    args = ap.parse_args()

    types, samples, errors = parse_prom(args.prom_file)
    errors += check_histograms(args.prom_file, types, samples)
    for family in STATS_FAMILIES if args.stats else EXPECTED_FAMILIES:
        if family not in types:
            errors.append("%s: expected metric family %s is missing"
                          % (args.prom_file, family))
    if args.bench:
        errors += reconcile(args.prom_file, samples, args.bench)

    if errors:
        print("telemetry check failed (%d error%s):"
              % (len(errors), "s" if len(errors) != 1 else ""))
        for e in errors:
            print("  - " + e)
        return 1
    print("telemetry ok: %d families, %d samples%s"
          % (len(types), len(samples),
             ", counters reconcile with " + args.bench if args.bench else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
