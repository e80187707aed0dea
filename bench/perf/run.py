#!/usr/bin/env python3
"""The repository benchmark: build, run, check and report.

    python3 bench/perf/run.py [--workload W] [--seed N] [--trace 0|1]
                              [--repeat N] [--smoke] [--update-expected]
                              [--baseline FILE] [--seconds S]

Builds mssr_perf and mssr_serve into build-perf/ (bench/perf is its own
CMake project over the repository's root CMakeLists.txt), then runs
each selected workload in a fresh `mssr_perf` process per repeat and
prints every metric as `workload metric value unit`. With --repeat N
the value is the median over the repeats, followed by the quartiles,
min, max and sample count. --trace 1 runs the traced variant, which
reports the per-layer metrics instead of the end-to-end ones and
writes a Chrome trace to bench/perf/out/.

A run's length is fixed by its workload's pass count, sized to
BENCHMARK.json's run_seconds. --seconds exists only for callers that
pass run_seconds along; any other value is refused.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds
every metric BENCHMARK.json declares for the mode (end_to_end untraced,
per_layer traced), keyed "<workload>/<metric>" when several workloads
ran. A run whose checks fail still prints it, with "correct": false,
and the script exits 1. A failed build prints no result and exits 1.

--baseline FILE runs --repeat untraced repeats and one traced run of
each workload and writes them, with their statistics and provenance,
to FILE (bench/perf/baseline.json is made this way).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-perf")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected", "seed42.json")
PERF = os.path.join(BUILD, "mssr_perf")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False when either fails."""
    os.makedirs(OUT, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    build_log = os.path.join(OUT, "build.log")
    with open(build_log, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as g:
                    log("".join(g.readlines()[-30:]))
                log(f"run.py: build failed; full log in {build_log}")
                return False
    return True


def provenance(tmp_dir):
    """Host facts recorded beside every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type, best = "unknown", ""
    path = os.path.realpath(tmp_dir)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    fs_type, best = parts[2], mnt
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "tmp_fs": fs_type}


def declared(benchmark, traced):
    """{metric: unit} that BENCHMARK.json declares for the mode."""
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def run_once(workload, seed, traced, smoke, update, tag):
    """One mssr_perf process; returns its result dict or None."""
    result = os.path.join(OUT, f"result-{workload}-{seed}-{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [PERF, "--workload", workload, "--seed", str(seed),
           "--out", result, "--tmp-dir", "tmp", "--expected", EXPECTED]
    if traced:
        cmd += ["--trace", os.path.join(OUT, f"trace-{workload}-{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    if update:
        cmd.append("--update-expected")
    # Running in OUT with relative temp paths keeps the daemon's socket
    # path short. The timeout keeps a run inside three minutes; the
    # killed process takes its daemon with it.
    rc = subprocess.call(cmd, cwd=OUT, stdout=sys.stderr, timeout=170)
    if rc == 2 or not os.path.exists(result):
        log(f"run.py: mssr_perf {workload} exited {rc} without a result")
        return None
    with open(result) as f:
        return json.load(f)


def check_names(res, benchmark, traced):
    """Failures for metrics missing from, or extra to, the declaration."""
    want = declared(benchmark, traced)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    errors = []
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            errors.append(f"metric {name}: declared unit {want.get(name)}, "
                          f"reported {got.get(name)}")
    return errors


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--update-expected", action="store_true")
    ap.add_argument("--baseline", metavar="FILE")
    ap.add_argument("--seconds", type=float,
                    help="must equal BENCHMARK.json's run_seconds")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_json) as f:
        benchmark = json.load(f)
    if args.seconds not in (None, benchmark["run_seconds"]):
        log(f"run.py: --seconds {args.seconds:g}: a run measures "
            f"run_seconds = {benchmark['run_seconds']}, fixed by each "
            "workload's pass count")
        return 2
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    if not build():
        return 1
    host = provenance(os.path.join(OUT, "tmp"))

    plan = [(w, bool(args.trace), r) for w in workloads
            for r in range(args.repeat)]
    if args.baseline:
        plan = ([(w, False, r) for w in workloads
                 for r in range(args.repeat)] +
                [(w, True, 0) for w in workloads])
    runs = []
    for w, traced, r in plan:
        t0 = time.monotonic()
        res = run_once(w, args.seed, traced, args.smoke,
                       args.update_expected, f"{'t' if traced else 'u'}{r}")
        if res is None:
            return 1
        res["run_s"] = time.monotonic() - t0
        res.update(host)
        res["failures"] += check_names(res, benchmark, traced)
        res["failed"] = len(res["failures"])
        runs.append(res)
        log(f"run.py: {w} {'traced ' if traced else ''}run {r + 1}: "
            f"{res['run_s']:.1f} s, {res['attempted']} jobs, "
            f"{res['failed']} failed")

    report = {}
    for w in workloads:
        for traced in sorted({t for _, t, _ in plan}):
            mine = [x for x in runs
                    if x["workload"] == w and x["traced"] == traced]
            stats = {}
            for name, unit in declared(benchmark, traced).items():
                vals = [x["metrics"][name]["value"] for x in mine
                        if name in x["metrics"]]
                if not vals:
                    continue
                stats[name] = dict(summary(vals), unit=unit)
                s = stats[name]
                line = f"{w} {name} {s['median']:.6g} {unit}"
                if len(vals) > 1:
                    line += (f" q1={s['q1']:.6g} q3={s['q3']:.6g} "
                             f"min={s['min']:.6g} max={s['max']:.6g} "
                             f"n={s['n']}")
                print(line)
            for x in mine:
                if not traced:
                    continue
                # The per-layer table: spans, total and self time; the
                # self times add up to the traced passes' wall time.
                self_sum = sum(l["self_s"] for l in x["layers"])
                for l in x["layers"]:
                    print(f"# {w} layer {l['layer']}: {l['count']} spans, "
                          f"total {l['total_s']:.4f} s, "
                          f"self {l['self_s']:.4f} s")
                print(f"# {w} layer self times {self_sum:.4f} s of "
                      f"{x['traced_wall_s']:.4f} s traced wall")
            attempted = sum(x["attempted"] for x in mine)
            failed = sum(x["failed"] for x in mine)
            report[(w, traced)] = (stats, attempted, failed)
        attempted = sum(a for (x, _), (_, a, _) in report.items() if x == w)
        failed = sum(n for (x, _), (_, _, n) in report.items() if x == w)
        print(f"{w} error_rate {failed / max(1, attempted):.6g} fraction")

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump({"schema": "mssr-perf-baseline-v1", "seed": args.seed,
                       "host": host, "runs": runs,
                       "stats": {f"{w}{'@traced' if t else ''}": s
                                 for (w, t), (s, _, _) in report.items()}},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    with open(os.path.join(OUT, f"run-seed{args.seed}.json"), "w") as f:
        json.dump({"host": host, "runs": runs}, f, indent=1, sort_keys=True)

    attempted = sum(a for _, a, _ in report.values())
    failed = sum(n for _, _, n in report.values())
    metrics = {}
    for (w, _), (stats, _, _) in report.items():
        for name, s in stats.items():
            key = name if len(workloads) == 1 else f"{w}/{name}"
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
