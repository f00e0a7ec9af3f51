"""The output checks pass real artifacts and fail corrupted ones."""

import contextlib
import io
import json
import random
import tempfile
import unittest
from pathlib import Path

import wardgames.cli
from perfbench import checks
from perfbench.workloads import round_jobs
from wardgames.cli import parse_scenario_document


def _job_outputs(job, tmp: Path) -> tuple[object, Path, str]:
    """Run one generated job; returns (scenario, output path, stderr)."""
    scenario_file = tmp / "scenario.json"
    scenario_file.write_text(job.scenario_text())
    out = tmp / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert wardgames.cli.main(job.argv(str(scenario_file), str(out))) == 0
    return parse_scenario_document(job.doc)[0], out, stderr.getvalue()


def _not_nash(scenario, listed: set[str]) -> str:
    for mask in range(1 << min(scenario.n, 16)):
        profile = wardgames.ActionProfile.from_mask(mask, scenario.n)
        if str(profile) not in listed and not wardgames.is_nash(scenario, profile).is_nash:
            return str(profile)
    raise AssertionError("every profile is Nash")


class AnalysisChecks(unittest.TestCase):
    def _corrupt_and_check(self, job):
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out, _ = _job_outputs(job, Path(tmp))
            doc = json.loads(Path(f"{out}.json").read_text())
        rng = random.Random(0)
        self.assertEqual(checks.check_analysis(scenario, 0.0, doc, rng), [])
        listed = {p["profile"] for p in doc["equilibrium"]["nash_profiles"]}
        bad = json.loads(json.dumps(doc))
        bad["equilibrium"]["nash_profiles"].append({"profile": _not_nash(scenario, listed),
                                                    "strict": True})
        self.assertTrue(checks.check_analysis(scenario, 0.0, bad, rng))
        bad = json.loads(json.dumps(doc))
        bad["equilibrium"]["welfare_optimum"]["welfare"] += 1e-9
        self.assertTrue(checks.check_analysis(scenario, 0.0, bad, rng))
        bad = json.loads(json.dumps(doc))
        del bad["equilibrium"]["nash_profiles"][-1]
        self.assertTrue(checks.check_analysis(scenario, 0.0, bad, rng))
        return scenario, doc

    def test_sampled_check_catches_an_injected_profile(self):
        self._corrupt_and_check(round_jobs("analyze", 1, 0)[0])  # N > FULL_SCAN_MAX_N

    def test_full_scan_catches_an_injected_profile(self):
        job = next(j for j in round_jobs("report", 1, 0) if j.n <= checks.FULL_SCAN_MAX_N)
        job = type(job)("analyze", job.n, job.symmetric, job.doc)
        self._corrupt_and_check(job)

    def test_orbit_check_catches_a_dropped_orbit(self):
        job = round_jobs("report", 1, 0)[2]  # symmetric N = 12, threshold tau = 3
        self.assertTrue(job.symmetric and job.n > checks.FULL_SCAN_MAX_N)
        job = type(job)("analyze", job.n, job.symmetric, job.doc)
        scenario, doc = self._corrupt_and_check(job)
        counts = {p["profile"].count("E") for p in doc["equilibrium"]["nash_profiles"]}
        interior = sorted(counts - {0, scenario.n})
        self.assertTrue(interior, "this draw has an interior Nash orbit")
        bad = json.loads(json.dumps(doc))
        bad["equilibrium"]["nash_profiles"] = [
            p for p in doc["equilibrium"]["nash_profiles"]
            if p["profile"].count("E") != interior[0]]
        self.assertTrue(checks.check_analysis(scenario, 0.0, bad, random.Random(0)))
        bad["equilibrium"]["nash_profiles"] = []
        self.assertTrue(checks.check_analysis(scenario, 0.0, bad, random.Random(0)))


class DynamicsChecks(unittest.TestCase):
    def test_replicator_trajectory_outside_unit_interval_fails(self):
        job = round_jobs("dynamics", 2, 0)[0]  # replicator, smallest N
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out, stderr = _job_outputs(job, Path(tmp))
            text = Path(f"{out}.csv").read_text()
        steps = checks.replicator_steps(50.0, 0.01)
        self.assertEqual(checks.check_replicator(scenario, text, stderr, steps), [])
        lines = text.splitlines()
        lines[5] = lines[5].split(",")[0] + ",1.5"
        bad = "\n".join(lines) + "\n"
        self.assertTrue(checks.check_replicator(scenario, bad, stderr, steps))

    def test_best_response_terminal_must_match_nash(self):
        job = round_jobs("dynamics", 2, 0)[5]  # best response, smallest N
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out, stderr = _job_outputs(job, Path(tmp))
            text = Path(f"{out}.csv").read_text()
        self.assertEqual(checks.check_best_response(scenario, text, stderr, 0.0), [])
        lying = stderr.replace("ConvergedToNash", "MaxItersReached")
        if lying == stderr:
            lying = stderr.replace("MaxItersReached", "ConvergedToNash")
        self.assertTrue(checks.check_best_response(scenario, text, lying, 0.0))


class ReportChecks(unittest.TestCase):
    def test_skipped_threshold_with_a_flip_is_caught(self):
        job = round_jobs("report", 1, 0)[1]  # asymmetric linear benefit
        with tempfile.TemporaryDirectory() as tmp:
            scenario, out, stderr = _job_outputs(job, Path(tmp))
            rng = random.Random(0)
            problems, sweeps, found = checks.check_report(scenario, 0.0, out, stderr, rng)
            self.assertEqual(problems, [])
            self.assertEqual(sweeps, len(checks.canonical_sweeps(scenario)))
            flipped = next(out.glob("threshold_*.json"), None)
            if flipped is None:
                self.skipTest("no threshold in this draw")
            path = json.loads(flipped.read_text())["parameter_path"]
            flipped.unlink()  # as if report had swallowed an error here
            note = f"note: no threshold for {path}: boom\n"
            problems, _, _ = checks.check_report(scenario, 0.0, out, stderr + note, rng)
        self.assertTrue(any("differs at the ends" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
