#!/usr/bin/env python3
"""End-to-end checks for the mssr_serve daemon (docs/FORMATS.md:
mssr-serve-v1 / mssr-serve-journal-v1).

Modes:

  double-submit   Start a server, submit the same sweep twice with
                  --wait, and require the two streamed JSONL result
                  sets to be byte-identical (the determinism contract:
                  serve records carry no host-side fields). Then
                  SIGTERM the server and require a clean exit 0 and a
                  parseable final Prometheus textfile.

  resume          Start a server with a crash journal and a slow
                  sweep, SIGKILL it after the first job's `done` line
                  lands, restart it on the same journal, and require:
                  (a) the restarted server re-queues and finishes
                  exactly the not-yet-completed jobs (the post-restart
                  journal lines are the complement of the pre-kill
                  ones, no (batch, job) duplicated), and (b) the full
                  result set fetched after recovery is byte-identical
                  to an uninterrupted reference run of the same sweep.

  cli-match       For a handful of mssr_run command lines, run
                  `mssr_run --stats-out` and submit the same jobs as
                  job-spec JSON, then require both sides to agree on
                  every integer field both records carry, every CPI
                  slot (`cpi_slots` vs `cpi`) and every funnel count:
                  a command line and its served job must simulate the
                  same machine, --compare baselines included.

  deep-frame      Send a live server one frame of 100,000 `[` and
                  require a `bad_request` reply, then a ping answered
                  and a clean exit 0 on SIGTERM: no nesting depth in a
                  request can overflow the server's stack.

Usage:
  check_serve.py --serve BIN --submit BIN --mode MODE [--run BIN]
                 [--keep DIR]
"""

import argparse
import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"check_serve: FAIL: {msg}")
    sys.exit(1)


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    fail(f"timed out waiting for {what}")


def journal_done_keys(path):
    """(batch, job) pairs of `done` events, in file order."""
    keys = []
    if not os.path.exists(path):
        return keys
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line is legal
            if ev.get("event") == "done":
                keys.append((ev["batch"], ev["job"]))
    return keys


def check_prom(path):
    """The textfile must parse as Prometheus text exposition and
    carry the serve families."""
    with open(path) as f:
        lines = f.read().splitlines()
    names = set()
    for line in lines:
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(f"bad comment line in {path}: {line!r}")
            continue
        name, _, value = line.partition(" ")
        name = name.partition("{")[0]
        try:
            float(value.split()[0])
        except (ValueError, IndexError):
            fail(f"unparseable sample in {path}: {line!r}")
        names.add(name)
    for family in (
        "mssr_serve_requests_total",
        "mssr_serve_jobs_done_total",
        "mssr_serve_queue_depth",
    ):
        if family not in names:
            fail(f"{path} is missing metric family {family}")


class Server:
    def __init__(self, serve_bin, socket_path, journal, results, prom,
                 ckpt_dir, jobs, log):
        self.proc = subprocess.Popen(
            [serve_bin, "--socket", socket_path, "--journal", journal,
             "--results-out", results, "--metrics-out", prom,
             "--ckpt-dir", ckpt_dir, "--jobs", str(jobs)],
            stdout=open(log, "w"), stderr=subprocess.STDOUT)
        self.socket_path = socket_path

    def wait_ready(self, submit_bin):
        # mssr_submit retries connects for ~5s itself; one ping both
        # waits for the listener and checks the schema handshake.
        out = subprocess.run(
            [submit_bin, "--socket", self.socket_path, "ping"],
            capture_output=True, text=True, timeout=30)
        if out.returncode != 0 or out.stdout.strip() != "mssr-serve-v1":
            fail(f"ping failed: rc={out.returncode} "
                 f"stdout={out.stdout!r} stderr={out.stderr!r}")


def run_submit(submit_bin, socket_path, *args, check=True, timeout=240):
    out = subprocess.run(
        [submit_bin, "--socket", socket_path, *args],
        capture_output=True, text=True, timeout=timeout)
    if check and out.returncode != 0:
        fail(f"mssr_submit {' '.join(args)} exited {out.returncode}: "
             f"{out.stderr}")
    return out


def mode_double_submit(opts, work):
    sweep = os.path.join(work, "sweep.json")
    with open(sweep, "w") as f:
        json.dump([
            {"name": "rgid", "workload": "nested-mispred", "iters": 150,
             "scale": 6, "fast_forward": 3000},
            {"name": "baseline", "workload": "nested-mispred",
             "scheme": "none", "iters": 150, "scale": 6,
             "fast_forward": 3000},
            {"name": "sampled", "workload": "nested-mispred",
             "iters": 2000, "scale": 6, "sample_period": 10000,
             "sample_window": 2000},
        ], f)

    sock = os.path.join(work, "serve.sock")
    prom = os.path.join(work, "serve.prom")
    server = Server(opts.serve, sock, os.path.join(work, "journal.jsonl"),
                    os.path.join(work, "results.jsonl"), prom,
                    os.path.join(work, "ckpt"), 2,
                    os.path.join(work, "serve.log"))
    try:
        server.wait_ready(opts.submit)
        r1 = os.path.join(work, "r1.jsonl")
        r2 = os.path.join(work, "r2.jsonl")
        run_submit(opts.submit, sock, "submit", sweep, "--wait",
                   "--out", r1, "--label", "first")
        run_submit(opts.submit, sock, "submit", sweep, "--wait",
                   "--out", r2, "--label", "second")
        with open(r1, "rb") as f:
            b1 = f.read()
        with open(r2, "rb") as f:
            b2 = f.read()
        if not b1:
            fail("first submission streamed no records")
        if b1 != b2:
            fail("double-submit result sets differ")
        records = b1.count(b"\n")
        if records != 3:
            fail(f"expected 3 records, got {records}")

        out = run_submit(opts.submit, sock, "status", "--json")
        status = json.loads(out.stdout)
        if status["queue_depth"] != 0 or len(status["batches"]) != 2:
            fail(f"unexpected status after both batches: {out.stdout}")

        # Invalid jobs must come back as structured errors, never
        # crash the server.
        bad = os.path.join(work, "bad.json")
        with open(bad, "w") as f:
            json.dump([{"workload": "no-such-workload"}], f)
        out = run_submit(opts.submit, sock, "submit", bad, check=False)
        if out.returncode != 1 or "invalid_job" not in out.stderr:
            fail(f"bad sweep not rejected structurally: "
                 f"rc={out.returncode} stderr={out.stderr!r}")
        server.wait_ready(opts.submit)  # still serving

        server.proc.send_signal(signal.SIGTERM)
        rc = server.proc.wait(timeout=120)
        if rc != 0:
            fail(f"server exited {rc} after SIGTERM")
        if os.path.exists(sock):
            fail("server left its socket file behind")
        check_prom(prom)
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
    print("check_serve: double-submit ok")


def mode_resume(opts, work):
    # One quick job, then slow ones: the kill lands after the first
    # `done` journal line, leaving the rest for the restarted server.
    jobs = [{"name": "quick", "workload": "nested-mispred", "iters": 50,
             "scale": 6}]
    for i in range(3):
        jobs.append({"name": f"slow{i}", "workload": "nested-mispred",
                     "iters": 4000, "scale": 8, "seed": 42 + i})
    sweep = os.path.join(work, "sweep.json")
    with open(sweep, "w") as f:
        json.dump(jobs, f)

    sock = os.path.join(work, "serve.sock")
    journal = os.path.join(work, "journal.jsonl")
    results = os.path.join(work, "results.jsonl")
    prom = os.path.join(work, "serve.prom")
    ckpt = os.path.join(work, "ckpt")

    server = Server(opts.serve, sock, journal, results, prom, ckpt, 1,
                    os.path.join(work, "serve1.log"))
    try:
        server.wait_ready(opts.submit)
        out = run_submit(opts.submit, sock, "submit", sweep)
        batch = int(out.stdout.strip())
        wait_for(lambda: journal_done_keys(journal), 120,
                 "the first `done` journal line")
        server.proc.send_signal(signal.SIGKILL)
        server.proc.wait(timeout=60)
    finally:
        if server.proc.poll() is None:
            server.proc.kill()

    pre = journal_done_keys(journal)
    if not (0 < len(pre) < len(jobs)):
        fail(f"kill landed outside the batch: {len(pre)}/{len(jobs)} "
             f"jobs journaled")

    server = Server(opts.serve, sock, journal, results, prom, ckpt, 1,
                    os.path.join(work, "serve2.log"))
    try:
        server.wait_ready(opts.submit)

        def batch_done():
            out = run_submit(opts.submit, sock, "status", str(batch),
                             "--json", check=False)
            if out.returncode != 0:
                return False
            return json.loads(out.stdout)["state"] == "done"

        wait_for(batch_done, 240, "the resumed batch to finish")

        got = os.path.join(work, "got.jsonl")
        run_submit(opts.submit, sock, "results", str(batch),
                   "--out", got)

        post = journal_done_keys(journal)
        if len(post) != len(jobs):
            fail(f"journal has {len(post)} done lines for {len(jobs)} "
                 f"jobs")
        if len(set(post)) != len(post):
            fail("a (batch, job) pair was journaled twice -- the "
                 "restarted server re-ran finished work")
        resumed = set(post) - set(pre)
        expected = {(batch, j) for j in range(len(jobs))} - set(pre)
        if resumed != expected:
            fail(f"resumed jobs {sorted(resumed)} != the not-yet-done "
                 f"complement {sorted(expected)}")

        run_submit(opts.submit, sock, "shutdown")
        rc = server.proc.wait(timeout=120)
        if rc != 0:
            fail(f"server exited {rc} after shutdown request")
    finally:
        if server.proc.poll() is None:
            server.proc.kill()

    # Reference: the same sweep served start-to-finish, fresh journal.
    ref_sock = os.path.join(work, "ref.sock")
    ref = os.path.join(work, "ref.jsonl")
    server = Server(opts.serve, ref_sock, os.path.join(work, "refj.jsonl"),
                    os.path.join(work, "refr.jsonl"),
                    os.path.join(work, "ref.prom"), ckpt, 1,
                    os.path.join(work, "serve3.log"))
    try:
        server.wait_ready(opts.submit)
        run_submit(opts.submit, ref_sock, "submit", sweep, "--wait",
                   "--out", ref)
        run_submit(opts.submit, ref_sock, "shutdown")
        server.proc.wait(timeout=120)
    finally:
        if server.proc.poll() is None:
            server.proc.kill()

    with open(got, "rb") as f:
        got_bytes = f.read()
    with open(ref, "rb") as f:
        ref_bytes = f.read()
    if got_bytes != ref_bytes:
        fail("recovered result set differs from the uninterrupted "
             "reference run")
    print("check_serve: resume ok")


# (label, mssr_run flags, the same jobs as job specs). Every case runs
# at --scale 6 --iters 400 with seed 42; each job spec below gets
# those keys too. The --compare case's second job is its baseline.
CLI_CASES = [
    ("default rgid", [], ["nested-mispred", "bfs"],
     [{"workload": "nested-mispred"}, {"workload": "bfs"}]),
    ("compare under bimodal", ["--compare", "--predictor", "bimodal"],
     ["nested-mispred"],
     [{"workload": "nested-mispred", "predictor": "bimodal"},
      {"name": "nested-mispred/baseline", "workload": "nested-mispred",
       "scheme": "none", "predictor": "bimodal"}]),
    ("regint 32x2", ["--reuse", "regint", "--sets", "32", "--ways", "2"],
     ["nested-mispred"],
     [{"workload": "nested-mispred", "scheme": "regint", "sets": 32,
       "ways": 2}]),
    ("fast-forward + warm bpu", ["--fast-forward", "2000", "--warm-bpu"],
     ["nested-mispred"],
     [{"workload": "nested-mispred", "fast_forward": 2000,
       "warm_bpu": True}]),
    ("sampled", ["--sample-period", "10000", "--sample-window", "2000"],
     ["nested-mispred"],
     [{"workload": "nested-mispred", "sample_period": 10000,
       "sample_window": 2000}]),
    # Two sampled design points in one served batch share its scan and
    # warm states, as mssr_run's pair does.
    ("sampled compare", ["--compare", "--sample-period", "10000",
                         "--sample-window", "2000"],
     ["nested-mispred"],
     [{"workload": "nested-mispred", "sample_period": 10000,
       "sample_window": 2000},
      {"name": "nested-mispred/baseline", "workload": "nested-mispred",
       "scheme": "none", "sample_period": 10000, "sample_window": 2000}]),
]


def match_records(label, run, rec):
    """Fails unless a mssr-stats-v1 run and a serve record agree."""
    where = f"{label}: job '{rec.get('name')}'"
    cli = dict(run.get("sampling", {}), **run)
    if cli["name"] != rec["name"] or cli["scheme"] != rec["scheme"]:
        fail(f"{where}: mssr_run ran {cli['name']!r}/{cli['scheme']!r}")
    ints = [k for k, v in rec.items()
            if type(v) is int and type(cli.get(k)) is int]
    if "cycles" not in ints or "insts" not in ints:
        fail(f"{where}: records share no cycles/insts fields")
    for key in ints:
        if cli[key] != rec[key]:
            fail(f"{where}: {key} is {cli[key]} from mssr_run, "
                 f"{rec[key]} served")
    for mine, theirs in (("cpi_slots", "cpi"), ("funnel", "funnel")):
        if cli[mine] != rec[theirs]:
            fail(f"{where}: {mine} {cli[mine]} vs {theirs} {rec[theirs]}")


def mode_cli_match(opts, work):
    if not opts.run:
        fail("--mode cli-match needs --run <mssr_run>")
    # The job spec is environment-independent; mssr_run reads these.
    env = {k: v for k, v in os.environ.items()
           if k not in ("MSSR_SCALE", "MSSR_ITERS", "MSSR_SEED")}
    sock = os.path.join(work, "serve.sock")
    server = Server(opts.serve, sock, os.path.join(work, "journal.jsonl"),
                    os.path.join(work, "results.jsonl"),
                    os.path.join(work, "serve.prom"),
                    os.path.join(work, "ckpt"), 2,
                    os.path.join(work, "serve.log"))
    try:
        server.wait_ready(opts.submit)
        for i, (label, flags, workloads, jobs) in enumerate(CLI_CASES):
            stats = os.path.join(work, f"cli{i}.json")
            out = subprocess.run(
                [opts.run, "--scale", "6", "--iters", "400", *flags,
                 "--stats-out", stats, *workloads],
                capture_output=True, text=True, timeout=240, env=env)
            if out.returncode != 0:
                fail(f"{label}: mssr_run exited {out.returncode}: "
                     f"{out.stderr}")
            with open(stats) as f:
                runs = json.load(f)["runs"]

            sweep = os.path.join(work, f"jobs{i}.json")
            with open(sweep, "w") as f:
                json.dump([dict(j, scale=6, iters=400) for j in jobs], f)
            served = os.path.join(work, f"served{i}.jsonl")
            run_submit(opts.submit, sock, "submit", sweep, "--wait",
                       "--out", served, "--label", label)
            with open(served) as f:
                records = [json.loads(line) for line in f if line.strip()]

            if len(runs) != len(records):
                fail(f"{label}: mssr_run wrote {len(runs)} runs, the "
                     f"server {len(records)} records")
            for run, rec in zip(runs, records):
                match_records(label, run, rec)
        run_submit(opts.submit, sock, "shutdown")
        server.proc.wait(timeout=120)
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
    print("check_serve: cli-match ok")


def recv_exact(conn, n):
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        if not chunk:
            fail(f"server closed the connection after {len(data)} of "
                 f"{n} bytes")
        data += chunk
    return data


def mode_deep_frame(opts, work):
    sock = os.path.join(work, "serve.sock")
    server = Server(opts.serve, sock, os.path.join(work, "journal.jsonl"),
                    os.path.join(work, "results.jsonl"),
                    os.path.join(work, "serve.prom"),
                    os.path.join(work, "ckpt"), 1,
                    os.path.join(work, "serve.log"))
    try:
        server.wait_ready(opts.submit)
        payload = b"[" * 100000
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.settimeout(60)
            conn.connect(sock)
            conn.sendall(struct.pack("<I", len(payload)) + payload)
            (length,) = struct.unpack("<I", recv_exact(conn, 4))
            reply = json.loads(recv_exact(conn, length))
        if reply.get("ok") is not False or \
                reply.get("error") != "bad_request":
            fail(f"deep frame not rejected as bad_request: {reply}")
        server.wait_ready(opts.submit)  # still serving
        server.proc.send_signal(signal.SIGTERM)
        rc = server.proc.wait(timeout=120)
        if rc != 0:
            fail(f"server exited {rc} after SIGTERM")
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
    print("check_serve: deep-frame ok")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--submit", required=True)
    ap.add_argument("--mode", required=True,
                    choices=["double-submit", "resume", "cli-match",
                             "deep-frame"])
    ap.add_argument("--run", help="mssr_run binary (cli-match)")
    ap.add_argument("--keep", help="copy the scratch dir here afterwards")
    opts = ap.parse_args()

    # Unix-socket paths are length-limited (~108 bytes): scratch lives
    # under /tmp regardless of how deep the build tree is.
    work = tempfile.mkdtemp(prefix="mssr_serve_")
    try:
        if opts.mode == "double-submit":
            mode_double_submit(opts, work)
        elif opts.mode == "cli-match":
            mode_cli_match(opts, work)
        elif opts.mode == "deep-frame":
            mode_deep_frame(opts, work)
        else:
            mode_resume(opts, work)
    finally:
        if opts.keep:
            os.makedirs(opts.keep, exist_ok=True)
            dest = os.path.join(opts.keep, opts.mode)
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(work, dest,
                            ignore=shutil.ignore_patterns("*.sock"))
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
