#!/usr/bin/env python3
"""Tests of the benchmark itself, on a seconds-scale configuration.

    python3 -m unittest perfbench/test_perfbench.py      # from the repo root

Builds actor_perfbench through run.py (once per checkout), then checks that
every workload emits exactly the metric names and units of BENCHMARK.json in
both modes with zero failed operations, that the prequential MRR (one
ingest thread) and the core.*, hotspot.* and graph.* counts repeat bit for
bit at one seed, and that only the sparse stream has pure-decay ticks.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = 2


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"run.py {workload} seed={seed} trace={trace} "
                             f"exited {proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_names_units_and_accounting(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, 3, trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"]
                                for m in self.spec[section]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_repeats_bit_exactly_at_one_seed(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                e2e = [run(workload, 11, 0)["metrics"] for _ in range(2)]
                self.assertEqual(e2e[0]["prequential_mrr"]["value"],
                                 e2e[1]["prequential_mrr"]["value"])
                layer = [run(workload, 11, 1)["metrics"] for _ in range(2)]
                for name in ("core.units", "core.live_edges",
                             "core.spatial_hotspots", "core.temporal_hotspots",
                             "core.decay_ticks", "core.decay_tick_rebuilds",
                             "hotspot.spatial_count", "hotspot.temporal_count",
                             "graph.directed_edges"):
                    self.assertEqual(layer[0][name]["value"],
                                     layer[1][name]["value"], name)
                self.assertGreater(layer[0]["core.units"]["value"], 0)

    def test_only_the_sparse_stream_has_pure_decay_ticks(self):
        dense = run("shifting_city", 12, 1)["metrics"]
        sparse = run("sparse_city", 12, 1)["metrics"]
        self.assertEqual(dense["core.decay_ticks"]["value"], 0)
        self.assertEqual(dense["core.decay_tick_rebuilds"]["value"], 0)
        self.assertGreater(sparse["core.decay_ticks"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
