#!/usr/bin/env python3
"""The repository benchmark's entry point.

Run from the root of a source tree:

    python3 perfbench/run.py --workload chase-tc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

It copies the library, the binaries' sources and the harness
(perfbench/harness) into a dune workspace of its own under the build
directory ($CARGO_TARGET_DIR, default .bench_build), builds the shipped
binaries and the harness there, and hands the arguments to the harness.
The last line of standard output is the harness's JSON result.

--smoke runs every workload of BENCHMARK.json at tiny sizes, untraced and
traced, and checks that each run prints exactly the metrics BENCHMARK.json
names (every end-to-end metric untraced, every per-layer metric traced),
each with its unit and a finite value.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = ["dune-project", "lib", "bin"]
TARGETS = [
    "bin/chase_cli.exe",
    "bin/chased.exe",
    "bin/chasec.exe",
    "bin/obs_check.exe",
    "perfbench/perfbench.exe",
]

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ so
    that dune rebuilds nothing it does not have to."""
    keep = set()
    for root, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        rel = os.path.relpath(root, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for f in files:
            s = os.path.join(root, f)
            d = os.path.normpath(os.path.join(dst, rel, f))
            keep.add(d)
            with open(s, "rb") as fh:
                data = fh.read()
            if os.path.exists(d):
                with open(d, "rb") as fh:
                    if fh.read() == data:
                        continue
            with open(d, "wb") as fh:
                fh.write(data)
    for root, dirs, files in os.walk(dst):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        for f in files:
            p = os.path.normpath(os.path.join(root, f))
            if p not in keep:
                os.unlink(p)


def source_id(paths):
    """A digest of the measured sources: the tree measured need not be a git
    repository, so the commit is named by content."""
    h = hashlib.sha256()
    for top in paths:
        if os.path.isfile(top):
            walk = [(os.path.dirname(top), [], [os.path.basename(top)])]
        else:
            walk = os.walk(top)
        for root, dirs, files in walk:
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(root, f)
                h.update(p.encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def build(build_dir):
    for s in SOURCES:
        if not os.path.exists(s):
            fail("no %s here: run from the root of the source tree" % s)
    harness = os.path.join(HERE, "harness")
    if not os.path.isdir(harness):
        fail("no harness sources in " + harness)
    ws = os.path.join(build_dir, "ws")
    os.makedirs(ws, exist_ok=True)
    shutil.copyfile("dune-project", os.path.join(ws, "dune-project"))
    for d in ("lib", "bin"):
        sync_tree(d, os.path.join(ws, d))
    sync_tree(harness, os.path.join(ws, "perfbench"))
    log = os.path.join(build_dir, "build.log")
    with open(log, "wb") as out:
        code, _ = run_child(["dune", "build", "--root", ws, "--profile", "release"] + TARGETS,
                            stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        with open(log, errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail("build failed (exit %d), see %s" % (code, log))
    return os.path.join(ws, "_build", "default")


def run_child(cmd, **kw):
    """Run cmd in the foreground; a signal to this process is passed on,
    and the child is waited for on every path."""
    proc = subprocess.Popen(cmd, **kw)

    def forward(sig, _frame):
        proc.send_signal(sig)

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, forward)
    out, _ = proc.communicate()
    return proc.returncode, out


def run_harness(exe, args, capture=False):
    code, out = run_child([exe] + args, stdout=subprocess.PIPE if capture else None)
    return code, (out.decode() if capture else "")


def smoke(exe, common):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [[m["name"] for m in spec[k]] for k in ("end_to_end", "per_layer")]
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_harness(
                exe, common + ["--workload", w, "--seed", "1", "--seconds", "2",
                               "--trace", str(trace), "--smoke"], capture=True)
            lines = out.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                print("smoke %s trace=%d: exit %d, no result line" % (w, trace, code))
                ok = False
                continue
            want = wanted[trace]
            got = res.get("metrics", {})
            bad = [n for n in want if n not in got or got[n].get("unit") != units[n]
                   or not isinstance(got[n].get("value"), (int, float))]
            bad += ["%s (not in BENCHMARK.json)" % n for n in got if n not in want]
            problems = []
            if code != 0:
                problems.append("exit %d" % code)
            if bad:
                problems.append("missing or unitless: " + ", ".join(bad))
            # decide-corpus's failures are the verdicts its oracle contradicts
            if not res.get("correct") or (res.get("failed") and w != "decide-corpus"):
                problems.append("failed %s of %s" % (res.get("failed"), res.get("attempted")))
            print("smoke %-15s trace=%d %s" % (w, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    leftovers = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "tmp")
    if os.path.isdir(leftovers) and os.listdir(leftovers):
        print("smoke: run directories left behind: %s" % os.listdir(leftovers))
        ok = False
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and not a.workload:
        fail("--workload is required")
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = build(build_dir)
    exe = os.path.join(out, "perfbench", "perfbench.exe")
    common = [
        "--bin-dir", os.path.join(out, "bin"),
        "--run-root", os.path.join(build_dir, "tmp"),
        "--source-id", source_id(SOURCES + [os.path.relpath(HERE)]),
    ]
    if a.smoke:
        sys.exit(smoke(exe, common))
    code, _ = run_harness(exe, common + [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
