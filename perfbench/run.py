#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench_server (and the libraries it
links from src/) into .bench_build/ with a Release build; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's: 0 when
every correctness check passed, 1 when one failed, 2 when the benchmark could
not be built or run.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet_mix", "bulk_ingest", "durable_ingest")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/ is missing; nothing to build", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_server"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not build():
        return 2
    cmd = [os.path.join(BUILD, "perfbench_server"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", os.path.join(BUILD, "run")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
