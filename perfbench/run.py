#!/usr/bin/env python3
"""Builds nimg_bench from the checkout's sources and runs one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload layout_sweep --seed 1 --seconds 10 --trace 0

The build goes to nimg_bench-<digest>/ under $CARGO_TARGET_DIR if set, else
under .bench_build, relative to the checkout root; <digest> is a hash of the
checkout's src/ and perfbench/, so a build directory only ever holds a
binary of the sources it is named after, even when several checkouts share
one target directory. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the Chrome
trace-event file is written to <build dir>/traces/<workload>-seed<n>.json.

Exits non-zero, without a result, when the sources are missing, the build
fails, or the benchmark fails or does not print a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("layout_sweep", "profile_capture", "cold_start_storm")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Stands in for the commit id: the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build_dir(digest):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "nimg_bench-" + digest.split(":")[-1])


def build(out):
    """Configures once and builds nimg_bench; an up-to-date build is a no-op."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the nimage sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--target", "nimg_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
        fail("build failed")
    return os.path.join(out, "nimg_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    digest = source_digest()
    out = build_dir(digest)
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", digest]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed a malformed result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
