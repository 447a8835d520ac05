#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/METRICS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload exec|ingest|serve --seed N \
        --seconds S --trace 0|1

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the library from ../src into .bench_build/perfbench. Build
output goes to stderr; the benchmark's report goes to stdout, and its last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is 0 only if every output matched its known
answer.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lfi_perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout, env=None):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False, env=env)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources missing: expected src/ next to perfbench/")
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 60, env)
    run_quiet(["cmake", "--build", BUILD, "--target", "lfi_perfbench",
               "-j", BUILD_JOBS], 780, env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["exec", "ingest", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    run_quiet([BINARY, "--selftest"], 60)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
