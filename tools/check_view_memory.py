#!/usr/bin/env python3
"""A recorder's window bounds its memory, and so does the trace's bound.

Runs one mssr_run job without a recorder, then with each recorder
rendering below, and compares the --stats-host-time peak_rss_kb of
each run with the plain run of the same length:

- a 10-cycle --view-start-cycle/--view-cycles window with
  --pipeview-out, and the same window with --trace-out, may cost at
  most 2 MiB. The windowed recorder holds a few dozen instructions'
  events, so anything it stores per fetched instruction outside the
  window (600k of them here) or allocates for events it never holds
  shows up as the difference;
- an unwindowed --trace, at --iters 3000 and at --iters 6000, may cost
  at most 8 MiB at both lengths: the text trace prints the newest 64Ki
  events, so its recorder must hold no more than those however long
  the run is;
- the export of an unwindowed --pipeview-out at --iters 300 may raise
  the process's maximum RSS by at most 24 MiB over its own peak_rss_kb
  at job end. It holds one record per fetched instruction (about 73k
  here, 11 MiB) and the lines no later row can precede; an export that
  held every output line as a string until the end cost over 50 MiB.

Each job is started from a forked shell: ru_maxrss survives exec, so a
job spawned straight from this script would report at least this
interpreter's own peak. The whole-process maximum is read as that
shell's children's ru_maxrss, in a fresh interpreter per job; it is
compared with the same run's peak_rss_kb, so what the recorder holds
during the run (which an instrumented build inflates) is not counted.

usage: check_view_memory.py --run MSSR_RUN
Exit status: 0 within every bound, 1 over one or a job failed.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile

JOB = ["--reuse", "rgid", "--scale", "6", "--stats-host-time"]
WINDOW = ["--view-start-cycle", "100", "--view-cycles", "10"]
WINDOW_MAX_KB = 2048
TRACE_MAX_KB = 8192

EXPORT_MAX_KB = 24 * 1024

# (what, --iters, recorder flags, bound in KB, export?). The stats'
# peak_rss_kb is taken at job end, before any export: most checks
# compare it with a plain run's; an export check compares the whole
# process's maximum, export included, with the run's own peak_rss_kb.
CHECKS = [
    ("a 10-cycle --pipeview-out window", 6000,
     ["--pipeview-out", "pv.kanata"] + WINDOW, WINDOW_MAX_KB, False),
    ("a 10-cycle --trace-out window", 6000,
     ["--trace-out", "trace.json"] + WINDOW, WINDOW_MAX_KB, False),
    ("an unwindowed --trace at --iters 3000", 3000, ["--trace"],
     TRACE_MAX_KB, False),
    ("an unwindowed --trace at --iters 6000", 6000, ["--trace"],
     TRACE_MAX_KB, False),
    ("the export of an unwindowed --pipeview-out at --iters 300", 300,
     ["--pipeview-out", "pv.kanata"], EXPORT_MAX_KB, True),
]

# Runs argv[1] through a shell and prints the largest child's maxrss.
MAX_RSS = ("import resource, subprocess, sys; "
           "code = subprocess.run(['sh', '-c', sys.argv[1]]).returncode; "
           "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss); "
           "sys.exit(code)")


def peak_rss_kb(mssr_run, iters, extra, cwd, whole=False):
    """The run's peak_rss_kb, or with @p whole, the whole process's
    maximum RSS and the run's peak_rss_kb."""
    cmd = shlex.join([mssr_run] + JOB + ["--iters", str(iters),
                                         "--stats-out", "stats.json"] +
                     extra + ["nested-mispred"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MSSR_")}
    # "; exit" keeps the shell from exec'ing the job in its own process.
    # The text trace goes to stderr, which only a failure needs.
    shell = f"{cmd} >/dev/null 2>err.txt; exit $?"
    proc = subprocess.run(
        [sys.executable, "-c", MAX_RSS, shell] if whole
        else ["sh", "-c", shell],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        with open(os.path.join(cwd, "err.txt"), encoding="utf-8") as f:
            sys.stderr.write(f.read()[-4000:])
        raise SystemExit(f"check_view_memory: FAIL: exit "
                         f"{proc.returncode}: {cmd}")
    with open(os.path.join(cwd, "stats.json"), encoding="utf-8") as f:
        job_end = json.load(f)["runs"][0]["peak_rss_kb"]
    if whole:
        return int(proc.stdout.split()[-1]), job_end
    return job_end


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", required=True, help="mssr_run binary")
    opts = ap.parse_args()

    mssr_run = os.path.abspath(opts.run)
    failed = False
    plain = {}
    with tempfile.TemporaryDirectory() as tmp:
        for what, iters, extra, bound, export in CHECKS:
            if export:
                kb, base = peak_rss_kb(mssr_run, iters, extra, tmp, True)
                diff = kb - base
                print(f"check_view_memory: peak_rss_kb {base} at job end, "
                      f"max RSS {kb} after {what} ({diff:+d} KB, bound "
                      f"{bound} KB)")
            else:
                if iters not in plain:
                    plain[iters] = peak_rss_kb(mssr_run, iters, [], tmp)
                kb = peak_rss_kb(mssr_run, iters, extra, tmp)
                diff = kb - plain[iters]
                print(f"check_view_memory: peak_rss_kb {plain[iters]} "
                      f"without a recorder, {kb} with {what} ({diff:+d} KB, "
                      f"bound {bound} KB)")
            if diff > bound:
                print(f"check_view_memory: FAIL: {what} costs more than "
                      f"{bound} KB")
                failed = True
    if failed:
        return 1
    print("check_view_memory: window bounds the viewer, and the trace's "
          "bound does not grow with run length")
    return 0


if __name__ == "__main__":
    sys.exit(main())
