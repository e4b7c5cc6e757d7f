#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny size (a seconds-long run each).

    python3 perfbench/tests/test_perfbench.py

They check that every metric BENCHMARK.json names is emitted with its unit,
that the oracle trips on a report with one flipped byte, and that one seed
gives identical simulated counts across two invocations.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("table2_flow", "campaign_fleet", "campaign_svc")

# Per-layer values that depend on host timing even at a fixed seed: the
# share of time busy, and how the svc coordinator happened to split and
# steal shards.
TIMING_DEPENDENT = {"fleet.busy_share", "svc.shards_dispatched", "svc.shards_stolen",
                    "svc.checkpoint_records"}
HOST_UNITS = {"s", "MB"}


def bench(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, key):
        wanted = {m["name"]: m["unit"] for m in spec()[key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p, result = bench(workload, trace)
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, wanted)

    def test_end_to_end_metrics_untraced(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_traced(self):
        self.check(1, "per_layer")


class OracleTrips(unittest.TestCase):
    def test_flipped_byte_fails_the_run(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    p, result = bench(workload, trace, extra=["--flip-report-byte"])
                    self.assertEqual(p.returncode, 1)
                    self.assertIn("first difference at line", p.stderr)
                    self.assertIsNotNone(result)
                    self.assertFalse(result["correct"])


class CountsRepeat(unittest.TestCase):
    def test_same_seed_same_simulated_counts(self):
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        counts = {n for n, u in units.items() if u not in HOST_UNITS} - TIMING_DEPENDENT
        self.assertIn("par.anneal.moves_tried", counts)
        self.assertIn("analog.ticks", counts)
        for workload in ("table2_flow", "campaign_fleet"):
            with self.subTest(workload=workload):
                runs = [bench(workload, 1, seed=11)[1]["metrics"] for _ in range(2)]
                for name in sorted(counts):
                    self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
