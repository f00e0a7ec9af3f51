"""BENCHMARK.json names exactly the workloads and metrics run.py emits."""

import json
import unittest
from pathlib import Path

from perfbench.run import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(SPEC.read_text())

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_metrics_and_units_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, PER_LAYER)
        self.assertLessEqual(max(m["bound"] for m in self.spec["end_to_end"]), 0.25)


if __name__ == "__main__":
    unittest.main()
