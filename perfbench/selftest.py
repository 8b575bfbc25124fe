#!/usr/bin/env python3
"""Smoke-size self-test of the serving benchmark.

    python3 perfbench/selftest.py [--seconds 1]

Runs every workload in BENCHMARK.json once untraced and once traced for a
short window, from the root of the checkout, and asserts that:
  * each run exits 0 and its last stdout line is the result object with
    exactly the keys correct/attempted/failed/metrics, correct = true;
  * the untraced run prints every end-to-end metric, the traced run every
    per-layer metric, each with the unit BENCHMARK.json gives it;
  * a copy holding only BENCHMARK.json and the benchmark's own directory
    fails without printing a result.
Exits 0 when all of that holds, 1 otherwise.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(proc, expected, label):
    problems = []
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return problems
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{label}: {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{label}: {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{w['name']} trace={trace}"
            found = check_result(run(ROOT, w["name"], a.seconds, trace),
                                 expected, label)
            problems += found
            print(f"{label}: {'FAIL' if found else 'ok'}", flush=True)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = run(bare, bench["workloads"][0]["name"], a.seconds, 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("bare copy: expected a failure without a result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
