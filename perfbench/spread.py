#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

Runs the benchmark once per seed on one workload and prints, per metric, the
median and the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)). A spread above a third of
the metric's bound is flagged "wide", above the bound "FAIL". With
--compare, the medians are also checked against an earlier set saved with
--save.

    python3 perfbench/spread.py --workload shifting_city --seeds 1-10 \
        --save .bench_build/spread-shifting-a.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="range, e.g. 11-20")
    parser.add_argument("--save", help="write the raw values to this file")
    parser.add_argument("--compare", help="a file written by --save")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed (exit {proc.returncode})")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} done in {time.monotonic() - start:.0f} s",
              file=sys.stderr)

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    worst = "ok"
    print(f"{'metric':24} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, m in metrics.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        verdict = "ok"
        if spread > m["bound"]:
            verdict = "FAIL"
        elif spread > m["bound"] / 3:
            verdict = "wide"
        if baseline is not None:
            old = statistics.median(baseline[name])
            new = statistics.median(v)
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            if worse > m["bound"]:
                verdict = "FAIL(median moved)"
        if verdict != "ok":
            worst = "FAIL" if verdict.startswith("FAIL") or worst == "FAIL" else "wide"
        print(f"{name:24} {med:12.6g} {spread:8.4f} {m['bound']:6.3f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    print(f"overall: {worst}")


if __name__ == "__main__":
    main()
