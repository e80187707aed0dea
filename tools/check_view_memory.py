#!/usr/bin/env python3
"""A pipeview cycle window bounds the viewer's memory.

Runs one mssr_run job twice: without a viewer, then with --pipeview-out
and a 10-cycle --view-start-cycle/--view-cycles window. Both write
--stats-host-time stats, and their peak_rss_kb must differ by at most
2 MiB. The windowed viewer keeps a few dozen records, so anything it
stores per fetched instruction outside the window (1.5M of them here,
4 bytes each is about 6 MB) shows up as the difference.

Each job is started from a forked shell: ru_maxrss survives exec, so a
job spawned straight from this script would report at least this
interpreter's own peak.

usage: check_view_memory.py --run MSSR_RUN
Exit status: 0 within bound, 1 over it or a job failed.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile

JOB = ["--reuse", "rgid", "--scale", "6", "--iters", "6000",
       "--stats-host-time"]
WINDOW = ["--pipeview-out", "pv.kanata", "--view-start-cycle", "100",
          "--view-cycles", "10"]
MAX_KB = 2048


def peak_rss_kb(mssr_run, extra, cwd):
    cmd = shlex.join([mssr_run] + JOB + ["--stats-out", "stats.json"] +
                     extra + ["nested-mispred"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MSSR_")}
    # "; exit" keeps the shell from exec'ing the job in its own process.
    proc = subprocess.run(["sh", "-c", f"{cmd} >/dev/null; exit $?"],
                          cwd=cwd, env=env, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"check_view_memory: FAIL: exit "
                         f"{proc.returncode}: {cmd}")
    with open(os.path.join(cwd, "stats.json"), encoding="utf-8") as f:
        return json.load(f)["runs"][0]["peak_rss_kb"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", required=True, help="mssr_run binary")
    opts = ap.parse_args()

    mssr_run = os.path.abspath(opts.run)
    with tempfile.TemporaryDirectory() as tmp:
        plain = peak_rss_kb(mssr_run, [], tmp)
        windowed = peak_rss_kb(mssr_run, WINDOW, tmp)
    diff = windowed - plain
    print(f"check_view_memory: peak_rss_kb {plain} without a viewer, "
          f"{windowed} with a 10-cycle window ({diff:+d} KB)")
    if diff > MAX_KB:
        print(f"check_view_memory: FAIL: the windowed viewer costs more "
              f"than {MAX_KB} KB")
        return 1
    print("check_view_memory: window bounds the viewer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
