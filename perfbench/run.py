#!/usr/bin/env python3
"""Builds actor_perfbench from this checkout's sources and runs one workload.

Run from the root of the checkout:

    python3 perfbench/run.py --workload shifting_city --seed 7 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, taken from a traced run whose spans are written to
.bench_build/traces/.

Exits nonzero, without a result line, when the build fails or the program
reports metrics that do not match BENCHMARK.json; exits nonzero after the
result line when an operation failed or an output check did not hold.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "actor_perfbench")
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds once per checkout; later calls are no-ops."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "actor_perfbench",
                  "-j", jobs])
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")


def run_binary(args, trace, trace_out=None):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace_out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish in {CHILD_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"no result from {' '.join(cmd)} (exit {proc.returncode})")
    if proc.returncode != 0 and result.get("correct", False):
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    return result


def check_metrics(metrics, expected):
    """Names and units must be exactly BENCHMARK.json's; values finite."""
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != expected[name]:
            fail(f"{name}: unit {entry['unit']!r}, BENCHMARK.json says "
                 f"{expected[name]!r}")
        if not math.isfinite(entry["value"]):
            fail(f"{name}: non-finite value {entry['value']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build()
    trace_out = None
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    result = run_binary(args, args.trace, trace_out)
    if trace_out:
        print(f"spans written to {os.path.relpath(trace_out, ROOT)}")
    check_metrics(result["metrics"], expected)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
