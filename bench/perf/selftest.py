#!/usr/bin/env python3
"""Self-test of the repository benchmark (the perf_selftest ctest).

Runs every mssr_perf workload at --smoke size, untraced and traced, and
checks that:
  - each run reports exactly the metric names and units BENCHMARK.json
    declares (end_to_end untraced, per_layer traced);
  - no job fails (error rate 0), for seed 42 and for seed 7;
  - flipping one expected digest makes the run fail, naming the job;
  - --seed 7 changes Program::hash() of every program whose generator
    takes a seed (all GAP and SPEC-like ones but leela and exchange2),
    so a new seed really is held-out input.

    selftest.py --perf BIN --benchmark BENCHMARK.json
                --expected seed42.json --work DIR
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

# Programs whose generators take no seed: a new seed cannot change
# them, so it is not held-out input for them.
UNSEEDED = {"leela", "exchange2", "nested-mispred", "linear-mispred"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--perf", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    with open(args.benchmark) as f:
        bench = json.load(f)
    problems = []

    def run(tag, workload, seed=42, traced=False, expected=args.expected):
        out = os.path.join(args.work, tag + ".json")
        cmd = [args.perf, "--workload", workload, "--smoke",
               "--seed", str(seed), "--out", out, "--tmp-dir", "tmp",
               "--expected", expected]
        if traced:
            cmd += ["--trace", os.path.join(args.work, tag + ".trace.json")]
        p = subprocess.run(cmd, cwd=args.work, capture_output=True, text=True)
        res = None
        if os.path.exists(out):
            with open(out) as f:
                res = json.load(f)
        return p.returncode, res, p.stderr

    def expect_clean(tag, rc, res, err, traced):
        if rc != 0 or res is None or res["failed"] != 0:
            problems.append(f"{tag}: exit {rc}, failures:\n{err}")
            return
        key = "per_layer" if traced else "end_to_end"
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if want != got:
            problems.append(f"{tag}: metrics {sorted(got.items())} != "
                            f"declared {sorted(want.items())}")

    for w in (x["name"] for x in bench["workloads"]):
        programs = {}
        for seed, traced in ((42, False), (42, True), (7, False)):
            tag = f"{w}-{seed}" + ("-traced" if traced else "")
            rc, res, err = run(tag, w, seed=seed, traced=traced)
            expect_clean(tag, rc, res, err, traced)
            if res and not traced:
                programs[seed] = res["programs"]
        for prog, digest in programs.get(42, {}).items():
            if prog not in UNSEEDED and programs.get(7, {}).get(prog) == digest:
                problems.append(f"{w}: seed 7 did not change {prog}")

    # One flipped digest must fail the run and name its job.
    with open(args.expected) as f:
        expected = json.load(f)
    section = expected["workloads"]["detail_squash_light@smoke"]
    job = sorted(section)[0]
    digest = section[job]
    section[job] = ("1" if digest[0] != "1" else "2") + digest[1:]
    flipped = os.path.join(args.work, "flipped.json")
    with open(flipped, "w") as f:
        json.dump(expected, f)
    rc, res, err = run("flipped", "detail_squash_light", expected=flipped)
    if rc == 0 or job not in err:
        problems.append(f"a flipped digest for {job} did not fail the run "
                        f"(exit {rc})")

    for p in problems:
        print("selftest: FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
