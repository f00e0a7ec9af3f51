"""The tracer rebinds and restores every binding and accounts for all time."""

import contextlib
import io
import sys
import tempfile
import time
import unittest
from pathlib import Path

import wardgames
import wardgames.cli
from perfbench.tracer import TARGETS, Tracer

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


def _bindings() -> dict:
    return {(key, attr): value for key, m in sys.modules.items()
            if key == "wardgames" or key.startswith("wardgames.")
            for attr, value in vars(m).items() if callable(value)}


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return wardgames.cli.main(argv)


class Rebinding(unittest.TestCase):
    def test_every_binding_is_restored(self):
        before = _bindings()
        with Tracer():
            # Direct imports in other modules are rebound too.
            self.assertIsNot(wardgames.equilibrium.payoff_tables, before[
                ("wardgames.interventions", "payoff_tables")])
            self.assertIs(wardgames.equilibrium.welfare, wardgames.model.welfare)
            self.assertIs(wardgames.sweep.is_nash, wardgames.is_nash)
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_missing_target_is_reported_absent(self):
        targets = TARGETS + (("gone.fn", "wardgames.equilibrium", "no_such_function"),)
        before = _bindings()
        with Tracer(targets=targets) as tracer:
            self.assertEqual(_run(["analyze", str(SCENARIOS / "s0_baseline.json")]), 0)
            tracer.end_job("j0")
        self.assertEqual(tracer.absent, ["wardgames.equilibrium.no_such_function"])
        self.assertEqual(tracer.summary()["gone.fn"]["calls"], 0)
        self.assertEqual(_bindings(), before)


class SelfTime(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer:
            argv = ["report", str(SCENARIOS / "s0_observability.json"), "--bundle", tmp]
            start = time.perf_counter_ns()
            self.assertEqual(_run(argv), 0)
            wall = time.perf_counter_ns() - start
            tracer.end_job("j0")
        spans = tracer.summary()
        self.assertEqual(spans["cli.main"]["calls"], 1)
        # The job's own totals are kept under its id.
        self.assertEqual({k: v[0] for k, v in tracer.jobs["j0"].items()},
                         {k: v["calls"] for k, v in spans.items() if v["calls"]})
        self.assertEqual(sum(tracer.self_ns), tracer.root_ns)
        self.assertLessEqual(tracer.root_ns, wall)
        self.assertTrue(all(s["self_ms"] >= 0 for s in spans.values()))
        # Time inside callees is not charged to their callers.
        self.assertGreater(spans["interventions.effective_payoff"]["calls"], 0)
        self.assertLess(spans["model.welfare"]["self_ms"], spans["model.welfare"]["wall_ms"])
        self.assertGreater(tracer.counts["sweep.grid_points"], 0)
        self.assertGreater(tracer.counts["sweep.bisect_iters"], 0)

    def test_errors_are_counted_and_reraised(self):
        from wardgames import BracketError, critical_threshold
        from wardgames.cli import load_scenario

        s0 = load_scenario(SCENARIOS / "s0_observability.json")
        with Tracer() as tracer:
            with self.assertRaises(BracketError):
                wardgames.sweep.critical_threshold(
                    s0, "interventions[0].penalty", 0.0, 0.1, "all_buffer_not_nash")
            tracer.end_job("j0")
        self.assertEqual(tracer.summary()["sweep.critical_threshold"]["errors"], 1)
        self.assertIs(wardgames.sweep.critical_threshold, critical_threshold)


if __name__ == "__main__":
    unittest.main()
