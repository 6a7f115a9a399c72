#!/usr/bin/env python3
"""End-to-end benchmark of the ReStore HTTP service.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload complete_miss --seed 1 --seconds 30 --trace 0

It builds the service and the benchmark from source (CMake, into
.bench_build/ or $CARGO_TARGET_DIR), runs the benchmark's arithmetic
self-tests, then hands the run to perfbench_loadgen, which starts the
service in its own process, drives the workload at it, checks every answer
and prints one JSON result object as the last line of stdout. Build logs and
diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("complete_miss", "complete_hit", "live_ingest", "ingest_miss")
# Every child is waited for; the whole run must end within 180 seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# The service's thread-pool width (see README.md, "Pool width").
POOL_WIDTH = "1"
BUILD_JOBS = "3"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build(bench_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", bench_dir, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return code
    return run_logged(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                      BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if build(bench_dir, build_dir) != 0:
        log("build failed")
        return 2
    if run_logged([os.path.join(build_dir, "perfbench_selftest")], 60) != 0:
        log("benchmark self-tests failed")
        return 3

    run_dir = os.path.join(build_dir, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ, RESTORE_NUM_THREADS=POOL_WIDTH)
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "perfbench_server"),
           "--run-dir", run_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 4
    out = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        sys.stderr.write(out)
        log(f"perfbench_loadgen exited with {proc.returncode}")
        return proc.returncode
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
