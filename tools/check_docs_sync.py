#!/usr/bin/env python3
"""Doc/schema drift guard (the `test_docs_sync` ctest).

Two checks keep the documentation and the binaries honest:

1. Every fenced ```console block whose first line is `# verify` in
   README.md, EXPERIMENTS.md and docs/TOOLS.md is executed against the
   build tree: each `$ `-prefixed line runs as a shell command in a
   scratch directory with build/tools, build/bench and build/examples
   on PATH (and the repo's examples/ tree linked in). A documented
   command that no longer works fails the test.

2. Fresh JSON artifacts are generated with the built binaries
   (mssr-stats-v1 incl. a regint run and a sampled run with its
   per-window file, mssr-profile-v1, Chrome trace, BENCH_batch.json
   with profile/fast-forward enabled plus the
   sampled_accuracy variant, the structured-log JSONL, the
   --metrics-out Prometheus textfile, an mssr_bench_track history
   entry plus a check --json comparison object, and the
   mssr-pipeview-v1 header of a --pipeview-out Kanata log) and every
   key that appears anywhere in them — recursively —
   must be spelled as a backtick literal somewhere in docs/FORMATS.md.
   An emitted key the format reference does not document fails the
   test, as does a `.prom` metric name missing from the reference.
   The same check covers the service path: a real mssr_serve is
   booted on a scratch socket, driven with the documented mssr_submit
   commands, and its crash journal, server-side results stream,
   client-fetched results, status reply and live metrics textfile are
   key-checked against docs/FORMATS.md like every other artifact.

Usage: check_docs_sync.py --repo REPO_DIR --build BUILD_DIR
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

VERIFY_DOCS = ["README.md", "EXPERIMENTS.md", os.path.join("docs", "TOOLS.md")]
FORMATS_DOC = os.path.join("docs", "FORMATS.md")


def extract_verify_blocks(path):
    """Yields (lineno, [command, ...]) per `# verify`-tagged console block."""
    blocks = []
    lines = open(path, encoding="utf-8").read().splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```console":
            start = i + 1
            body = []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            if body and body[0].strip() == "# verify":
                cmds = [l.strip()[2:] for l in body if l.strip().startswith("$ ")]
                blocks.append((start + 1, cmds))
        i += 1
    return blocks


def run_verify_blocks(repo, build, scratch):
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(
        [os.path.join(build, d) for d in ("tools", "bench", "examples")]
        + [env.get("PATH", "")])
    # Commands may reference repo-relative inputs (e.g. examples/asm/*.s).
    link = os.path.join(scratch, "examples")
    if not os.path.exists(link):
        try:
            os.symlink(os.path.join(repo, "examples"), link)
        except OSError:
            shutil.copytree(os.path.join(repo, "examples"), link)

    failures = []
    total = 0
    for doc in VERIFY_DOCS:
        path = os.path.join(repo, doc)
        for lineno, cmds in extract_verify_blocks(path):
            for cmd in cmds:
                total += 1
                # Documented commands may use ./build/ paths.
                shell_cmd = cmd.replace("./build/", build.rstrip("/") + "/")
                proc = subprocess.run(
                    shell_cmd, shell=True, cwd=scratch, env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    timeout=240)
                if proc.returncode != 0:
                    failures.append(
                        "%s:%d: `%s` exited %d\n%s"
                        % (doc, lineno, cmd, proc.returncode,
                           proc.stdout.decode(errors="replace")[-2000:]))
    print("verify blocks: ran %d documented commands" % total)
    return failures


def json_keys(obj, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.add(k)
            json_keys(v, out)
    elif isinstance(obj, list):
        for v in obj:
            json_keys(v, out)


def generate_fixtures(build, scratch):
    """Runs the binaries to produce one artifact of every JSON format."""
    run = os.path.join(build, "tools", "mssr_run")
    small = "--scale 6 --iters 150"
    cmds = [
        # stats (rgid + baseline via --compare, with ff), profile, trace,
        # plus the telemetry artifacts: JSONL log and metrics textfile
        "%s %s --compare --reuse rgid --fast-forward 2000 "
        "--stats-out sync_s.json --profile-out sync_p.json "
        "--trace-out sync_t.json --log-level debug --log-out sync_log.jsonl "
        "--metrics-out sync_m.prom nested-mispred" % (run, small),
        # non-sampled host-time stats: the host_phases/peak_rss_kb keys
        # (the pipeview rides along for its mssr-pipeview-v1 header)
        "%s %s --reuse rgid --stats-host-time "
        "--stats-out sync_ht.json --pipeview-out sync_pv.kanata "
        "nested-mispred" % (run, small),
        # regint run for the ri.* counter family
        "%s %s --reuse regint --stats-out sync_ri.json nested-mispred"
        % (run, small),
        # Prometheus variant
        "%s %s --reuse rgid --stats-out sync_s.prom nested-mispred"
        % (run, small),
        # sampled run: "sampling" block (with the host-time scan pair)
        # plus the per-window stats file
        "%s %s --reuse rgid --sample-period 2000 --sample-window 500 "
        "--stats-host-time --stats-out sync_sampled.json "
        "--sample-windows-out sync_sampled_w.json nested-mispred"
        % (run, small),
    ]
    env = dict(os.environ)
    env.update({"MSSR_JSON": "1", "MSSR_PROFILE": "1", "MSSR_FF": "2000",
                "MSSR_JOBS": "1", "MSSR_SCALE": "6", "MSSR_ITERS": "200"})
    cmds.append(os.path.join(build, "bench", "bench_smoke"))
    # sampled_accuracy also writes BENCH_batch.json -- run it in a
    # subdirectory so the two reports don't collide.
    cmds.append("mkdir -p sampled && cd sampled && "
                "MSSR_SAMPLE_PERIOD=2000 MSSR_SAMPLE_WINDOW=500 %s"
                % os.path.join(build, "bench", "sampled_accuracy"))
    for cmd in cmds:
        subprocess.run(cmd, shell=True, cwd=scratch, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=240)
    # mssr_bench_track output: one mssr-bench-history-v1 entry, then
    # one mssr-bench-check-v1 comparison object against it.
    tracker = os.path.join(build, "tools", "mssr_bench_track")
    subprocess.run(
        "%s %s append BENCH_batch.json --history sync_hist.jsonl"
        % (sys.executable, tracker),
        shell=True, cwd=scratch, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=240)
    subprocess.run(
        "%s %s check BENCH_batch.json --against sync_hist.jsonl --json "
        "> sync_check.json" % (sys.executable, tracker),
        shell=True, cwd=scratch, env=env, check=True,
        stderr=subprocess.DEVNULL, timeout=240)
    return ["sync_s.json", "sync_ri.json", "sync_ht.json", "sync_p.json",
            "sync_t.json", "sync_sampled.json", "sync_sampled_w.json",
            "sync_check.json",
            "BENCH_batch.json", os.path.join("sampled", "BENCH_batch.json")]


def generate_serve_fixtures(build, scratch):
    """Boots a real mssr_serve on a scratch socket, drives it with the
    documented mssr_submit commands, and returns (json_fixtures,
    jsonl_fixtures) for the key check. The server is torn down even if
    a client command fails."""
    serve = os.path.join(build, "tools", "mssr_serve")
    submit = os.path.join(build, "tools", "mssr_submit")
    sock = os.path.join(scratch, "sync_serve.sock")
    sweep = os.path.join(scratch, "sync_serve_sweep.json")
    with open(sweep, "w", encoding="utf-8") as f:
        json.dump([
            {"workload": "nested-mispred", "scheme": "rgid",
             "fast_forward": 2000, "iters": 150, "scale": 6},
            {"name": "sampled", "workload": "nested-mispred",
             "scheme": "rgid", "iters": 2000, "scale": 6,
             "sample_period": 10000, "sample_window": 2000},
        ], f)
    log = open(os.path.join(scratch, "sync_serve.log"), "wb")
    server = subprocess.Popen(
        [serve, "--socket", sock,
         "--journal", os.path.join(scratch, "sync_serve_journal.jsonl"),
         "--results-out", os.path.join(scratch, "sync_serve_results.jsonl"),
         "--metrics-out", os.path.join(scratch, "sync_serve.prom"),
         "--ckpt-dir", os.path.join(scratch, "sync_serve_ckpt"),
         "--jobs", "2"],
        cwd=scratch, stdout=log, stderr=log)
    try:
        def client(args, out=None):
            subprocess.run([submit, "--socket", sock] + args,
                           cwd=scratch, check=True, timeout=240,
                           stdout=out or subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        client(["submit", sweep, "--wait", "--out",
                os.path.join(scratch, "sync_serve_fetched.jsonl")])
        with open(os.path.join(scratch, "sync_serve_status.json"),
                  "wb") as f:
            client(["status", "--json"], out=f)
        client(["shutdown"])
        server.wait(timeout=60)
    finally:
        server.kill()
        log.close()
    if server.returncode != 0:
        raise subprocess.CalledProcessError(server.returncode, serve)
    return (["sync_serve_status.json"],
            ["sync_serve_journal.jsonl", "sync_serve_results.jsonl",
             "sync_serve_fetched.jsonl"])


def check_formats_doc(repo, build, scratch):
    failures = []
    formats = open(os.path.join(repo, FORMATS_DOC), encoding="utf-8").read()
    documented = set(re.findall(r"`([^`\n]+)`", formats))
    # `metric{label,...}` documents the metric name too.
    documented |= {d.split("{", 1)[0] for d in documented if "{" in d}

    serve_json, serve_jsonl = generate_serve_fixtures(build, scratch)
    keys = {}
    for fixture in generate_fixtures(build, scratch) + serve_json:
        ks = set()
        json_keys(json.load(open(os.path.join(scratch, fixture))), ks)
        keys[fixture] = ks
    # JSONL artifacts: one JSON object per line (structured log,
    # bench history, serve journal and result streams); every key must
    # be documented like any other.
    for fixture in ["sync_log.jsonl", "sync_hist.jsonl"] + serve_jsonl:
        ks = set()
        for line in open(os.path.join(scratch, fixture), encoding="utf-8"):
            if line.strip():
                json_keys(json.loads(line), ks)
        keys[fixture] = ks
    # The Kanata pipeview file is not JSON, but its second line is the
    # mssr-pipeview-v1 header object — document those keys too.
    with open(os.path.join(scratch, "sync_pv.kanata"),
              encoding="utf-8") as f:
        f.readline()
        header = f.readline()
    prefix = "# mssr-pipeview-v1 "
    if not header.startswith(prefix):
        failures.append("sync_pv.kanata: missing mssr-pipeview-v1 header")
    else:
        ks = set()
        json_keys(json.loads(header[len(prefix):]), ks)
        keys["sync_pv.kanata"] = ks
    all_keys = set().union(*keys.values())
    for key in sorted(all_keys):
        if key not in documented:
            where = [f for f, ks in keys.items() if key in ks]
            failures.append(
                "%s: emitted JSON key `%s` (in %s) is not documented"
                % (FORMATS_DOC, key, ", ".join(where)))
    print("formats: %d distinct emitted JSON keys, all checked against %s"
          % (len(all_keys), FORMATS_DOC))

    for prom_file in ["sync_s.prom", "sync_m.prom", "sync_serve.prom"]:
        prom = open(os.path.join(scratch, prom_file),
                    encoding="utf-8").read()
        for name in sorted(set(re.findall(r"^# TYPE (\w+)", prom, re.M))):
            if name not in documented:
                failures.append(
                    "%s: Prometheus metric `%s` (in %s) is not documented"
                    % (FORMATS_DOC, name, prom_file))
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo", required=True)
    ap.add_argument("--build", required=True)
    args = ap.parse_args()
    repo = os.path.abspath(args.repo)
    build = os.path.abspath(args.build)

    scratch = tempfile.mkdtemp(prefix="mssr_docs_sync_")
    try:
        failures = run_verify_blocks(repo, build, scratch)
        failures += check_formats_doc(repo, build, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if failures:
        print("\ndocs out of sync (%d failure%s):" %
              (len(failures), "s" if len(failures) != 1 else ""))
        for f in failures:
            print("  - " + f.replace("\n", "\n    "))
        return 1
    print("docs in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
