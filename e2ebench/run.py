#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload lmds_sweep --seed 1 --seconds 15 --trace 0

Run it from the repository root. The first run configures and builds
libsysds and the benchmark into .bench_build/ (a few minutes); later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Inputs and buffer-pool spill files
stay under .bench_build/ as well.

Workloads: lmds_sweep, steplm_reuse, prep_train, scoring (e2ebench/README.md
says what each measures). --trace 0 reports the end-to-end metrics with
tracing off; --trace 1 reports the per-layer metrics of a traced run.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("lmds_sweep", "steplm_reuse", "prep_train", "scoring")
# Threads per process: the workloads are sized for a 4-core host. The
# benchmark takes its kernel thread count from SYSDS_NUM_THREADS.
MAX_THREADS = 4
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir, threads):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", str(threads)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no SystemDS sources (src/) next to the benchmark; run it "
             "inside a full checkout")
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "e2ebench")
    data_dir = os.path.join(out_dir, "e2ebench-data")
    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    build(bench_dir, build_dir, threads)
    os.makedirs(data_dir, exist_ok=True)

    # The buffer pool spills under TMPDIR; keep it inside the checkout.
    env = dict(os.environ, SYSDS_NUM_THREADS=str(threads), TMPDIR=data_dir)
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
