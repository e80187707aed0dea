#!/usr/bin/env python3
"""Golden digests for every mssr_run export and mssr_stats report.

Runs a few small mssr_run jobs (--scale 6 --iters 150), one sampled job,
the full-detail run of the same job and a sampled --compare run through
a checkpoint store (--iters 2000), and one bench_smoke batch, hashes
every file they write (the store's checkpoint files included), and
compares the digests with tests/golden/mssr_run_outputs.json. A change
that moves any exported byte fails here: the stats registry (JSON and
Prometheus), the sampled stats and per-window runs, the checkpoint
files, the per-PC profile (JSON and folded), the Kanata pipeview, the
Chrome and text traces, and bench_smoke's BENCH_batch.json records.
The stdout of every mssr_stats mode over those files is digested too,
so a reader that misparses or reprints a field fails as well.

Left out of the digests: `build_info` (in the stats JSON and the Kanata
header line), and the host-timing keys of BENCH_batch.json. The jobs do
not pass --stats-host-time, so nothing else varies between hosts.

usage: check_golden.py --build BUILD [--work DIR] [--update]

--work keeps the outputs there, to diff against another build's.
--update rewrites the golden file from BUILD. A change that alters
simulated output on purpose does that and says why.

Exit status: 0 all digests match, 1 a digest differs, 2 usage.
"""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / \
    "mssr_run_outputs.json"

SIZE = ["--scale", "6", "--iters", "150"]

# Each case runs twice, so every output flag is written in both of its
# formats: JSON stats/profile plus the pipeview and Chrome trace, then
# Prometheus stats, folded profile and the text trace (on stderr).
SINKS = (
    ["--stats-out", "stats.json", "--profile-out", "profile.json",
     "--pipeview-out", "pipeview.kanata", "--trace-out", "trace.json"],
    ["--stats-out", "stats.prom", "--profile-out", "profile.folded",
     "--trace", "--log-level", "error"],
)

CASES = {
    "rgid-compare": ["--reuse", "rgid", "--compare", "nested-mispred"],
    "rgid-window": ["--reuse", "rgid", "--compare",
                    "--view-start-cycle", "200", "--view-cycles", "100",
                    "nested-mispred"],
    "bimodal-bfs": ["--predictor", "bimodal", "bfs"],
    "regint": ["--reuse", "regint", "--sets", "32", "--ways", "2",
               "nested-mispred"],
    "fast-forward": ["--fast-forward", "3000", "--warm-bpu",
                     "nested-mispred"],
}

# One sampled job and the full-detail run of the same job, each run
# once: sampled mode takes no profile, pipeview or trace sink.
SAMPLED_SIZE = ["--scale", "6", "--iters", "2000", "--reuse", "rgid",
                "--streams", "4", "--entries", "256"]

SAMPLED_CASES = {
    "sampled": ["--sample-period", "10000", "--sample-window", "2000",
                "--stats-out", "stats.json",
                "--sample-windows-out", "windows.json", "nested-mispred"],
    "full": ["--stats-out", "stats.json", "nested-mispred"],
    # Two design points (rgid 4x256 and its baseline) on one schedule:
    # every window after the first starts from a checkpoint both share,
    # and the store's checkpoint files are digested too.
    "sampled-compare": ["--sample-period", "10000", "--sample-window",
                        "2000", "--compare", "--ckpt-dir", "ckpt",
                        "--stats-out", "stats.json",
                        "--sample-windows-out", "windows.json",
                        "nested-mispred"],
}

# Every mssr_stats mode over the files above, run from the work
# directory. --annotate rebuilds the program at MSSR_SCALE/MSSR_ITERS,
# so the reports run at the cases' size.
REPORTS = {
    "stats": ["rgid-compare/stats.json"],
    "stats-ff": ["fast-forward/stats.json"],
    "stats-diff": ["--diff", "regint/stats.json", "rgid-compare/stats.json"],
    "sampled": ["sampled/stats.json"],
    "sampled-windows": ["sampled/windows.json"],
    "sampled-diff": ["--diff", "full/stats.json", "sampled/stats.json"],
    "topn": ["--topn", "5", "rgid-compare/profile.json"],
    "profile-diff": ["--diff", "regint/profile.json",
                     "rgid-compare/profile.json"],
    "annotate": ["--annotate", "nested-mispred", "rgid-compare/profile.json"],
    "timeline": ["--timeline", "rgid-compare/pipeview.0_nested-mispred.kanata",
                 "--start", "100", "--cycles", "60"],
}
REPORT_ENV = {"MSSR_SCALE": "6", "MSSR_ITERS": "150"}

# BENCH_batch.json keys that measure the host, not the simulation.
HOST_KEYS = re.compile(
    r"^(host_sec|kips|ff_host_sec|ff_kips|phase_\w+_sec|peak_rss_kb)$")
HOST_TOP_KEYS = ("threads", "wall_sec", "build_info")


def clean_env():
    """The environment minus every MSSR_* knob, so only flags count."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MSSR_")}


def skip_object(data, i):
    """Index just past the JSON object that starts at data[i]."""
    depth, in_string, escaped = 0, False, False
    while i < len(data):
        c = data[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == ord("\\"):
                escaped = True
            elif c == ord('"'):
                in_string = False
        elif c == ord('"'):
            in_string = True
        elif c == ord("{"):
            depth += 1
        elif c == ord("}"):
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ValueError("unterminated build_info object")


def drop_build_info(data):
    """Removes every `"build_info": {...}` member and its separator."""
    key = b'"build_info": '
    out, pos = [], 0
    while (start := data.find(key, pos)) >= 0:
        end = skip_object(data, start + len(key))
        if data[end:end + 1] == b",":
            end += 1
            while data[end:end + 1] in (b" ", b"\n"):
                end += 1
        out.append(data[pos:start])
        pos = end
    out.append(data[pos:])
    return b"".join(out)


def drop_host_keys(data):
    """BENCH_batch.json without its host-timing keys, canonically."""
    batch = json.loads(data)
    for key in HOST_TOP_KEYS:
        batch.pop(key, None)
    for result in batch.get("results", []):
        for key in [k for k in result if HOST_KEYS.match(k)]:
            del result[key]
    return json.dumps(batch, sort_keys=True).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()


def run(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"check_golden: FAIL: exit {proc.returncode}: "
                         f"{shlex.join(cmd)}")
    return proc


def case_digests(build, work):
    build = build.resolve()
    mssr_run = str(build / "tools" / "mssr_run")
    env = clean_env()
    digests = {}
    for name, args in CASES.items():
        cwd = work / name
        cwd.mkdir(parents=True)
        for sinks in SINKS:
            proc = run([mssr_run] + SIZE + sinks + args, cwd, env)
            if "--trace" in sinks:
                (cwd / "trace.txt").write_bytes(proc.stderr)
        for path in sorted(cwd.iterdir()):
            digests[f"{name}/{path.name}"] = digest(
                drop_build_info(path.read_bytes()))

    for name, args in SAMPLED_CASES.items():
        cwd = work / name
        cwd.mkdir(parents=True)
        run([mssr_run] + SAMPLED_SIZE + args, cwd, env)
        for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
            digests[f"{name}/{path.relative_to(cwd).as_posix()}"] = digest(
                drop_build_info(path.read_bytes()))

    reports = work / "mssr_stats"
    reports.mkdir()
    for name, args in REPORTS.items():
        proc = run([str(build / "tools" / "mssr_stats")] + args, work,
                   dict(env, **REPORT_ENV))
        (reports / f"{name}.txt").write_bytes(proc.stdout)
        digests[f"mssr_stats/{name}.txt"] = digest(proc.stdout)

    cwd = work / "bench_smoke"
    cwd.mkdir()
    env.update(MSSR_SCALE="6", MSSR_ITERS="150", MSSR_JOBS="1",
               MSSR_JSON="1", MSSR_PROFILE="1")
    run([str(build / "bench" / "bench_smoke")], cwd, env)
    digests["bench_smoke/BENCH_batch.json"] = digest(
        drop_host_keys((cwd / "BENCH_batch.json").read_bytes()))
    return digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", required=True, type=Path,
                    help="CMake build tree holding tools/ and bench/")
    ap.add_argument("--work", type=Path,
                    help="keep the outputs in this (new) directory")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this build")
    opts = ap.parse_args()

    if opts.work:
        opts.work.mkdir(parents=True)
        got = case_digests(opts.build, opts.work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            got = case_digests(opts.build, Path(tmp))

    if opts.update:
        GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"check_golden: wrote {len(got)} digests to {GOLDEN}")
        return 0

    want = json.loads(GOLDEN.read_text())
    bad = 0
    for key in sorted(set(want) | set(got)):
        if key not in got:
            print(f"check_golden: FAIL: {key} was not written")
        elif key not in want:
            print(f"check_golden: FAIL: {key} has no golden digest")
        elif got[key] != want[key]:
            print(f"check_golden: FAIL: {key} differs from its golden "
                  f"digest")
        else:
            continue
        bad += 1
    if bad:
        print(f"check_golden: {bad} of {len(want)} digests differ; if the "
              f"change is intended, rerun with --update and say why")
        return 1
    print(f"check_golden: all {len(got)} digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
