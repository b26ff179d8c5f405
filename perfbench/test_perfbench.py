#!/usr/bin/env python3
"""Smoke test of the served-query benchmark at quick sizes.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/test_perfbench.py

Checks that one command prints every metric BENCHMARK.json names, with its
unit, for every workload in both the untraced and the traced run; that
perfbench/layers.json documents every per-layer metric; and that the
oracle check is not vacuous: a corrupted expected result fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900, check=False)


def results_by_workload(stdout):
    """Per-workload result lines of a `--workload all` run."""
    results = {}
    for line in stdout.splitlines():
        if line.startswith('{"workload"'):
            result = json.loads(line)
            results[result.pop("workload")] = result
    return results


class PerfbenchSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load("BENCHMARK.json")
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def check_mode(self, trace, section):
        proc = run("--workload", "all", "--quick", "--seconds", "1",
                   "--seed", "3", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        results = results_by_workload(proc.stdout)
        self.assertEqual(sorted(results), sorted(self.workloads))
        for workload, result in results.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertIn("error_rate", proc.stdout)
        if not trace:
            self.assertIn("latency_p90_ms", proc.stdout)
        self.assertIn('"kind": "measured"', proc.stdout)
        return results

    def test_untraced_run_prints_every_end_to_end_metric(self):
        results = self.check_mode(0, "end_to_end")
        for workload, result in results.items():
            # Metrics a user sees are never zero.
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_traced_run_prints_every_per_layer_metric(self):
        results = self.check_mode(1, "per_layer")
        stage = results["ssb-gpu-c4"]["metrics"]["transfer.stage_ms"]
        self.assertGreater(stage["value"], 0)
        self.assertEqual(
            results["ssb-cpu-c1"]["metrics"]["transfer.stage_ms"]["value"], 0)
        self.assertGreater(
            results["star-build-zipf"]["metrics"]["plan.cache_evictions"]["value"], 0)

    def test_layer_map_covers_every_metric_and_workload(self):
        layers = load("perfbench/layers.json")
        self.assertEqual(sorted(layers["per_layer"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        self.assertEqual(sorted(layers["workloads"]), sorted(self.workloads))
        for name, entry in layers["per_layer"].items():
            for workload in entry["on"]:
                self.assertIn(workload, self.workloads, name)

    def test_corrupted_expected_result_fails_the_run(self):
        proc = run("--workload", "ssb-cpu-c1", "--quick", "--seconds", "1",
                   "--trace", "0", "--corrupt-expected")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("oracle mismatch", proc.stdout)


if __name__ == "__main__":
    unittest.main()
