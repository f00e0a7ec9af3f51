"""Workload generation: seeded, parseable, and strategic complements for analyze."""

import unittest
from fractions import Fraction

from perfbench.workloads import WORKLOADS, round_jobs
from wardgames.cli import parse_scenario_document


def exact_gains(doc: dict) -> list[Fraction]:
    """Gain to expose against j exposing others, j = 0..N-1, in exact
    arithmetic, for a symmetric document with a scalar mechanism cap."""
    n = doc["n_wards"]
    ward = doc["wards"]["symmetric"]
    ce, cb = Fraction(ward["cost_expose"]), Fraction(ward["cost_buffer"])
    b = doc["benefit"]
    if b["kind"] == "linear":
        benefit = [Fraction(b["beta_per_exposer"]) * k for k in range(n + 1)]
    elif b["kind"] == "threshold":
        benefit = [Fraction(b["beta"]) if k >= b["tau"] else Fraction(0) for k in range(n + 1)]
    elif b["kind"] == "table":
        benefit = [Fraction(v) for v in b["values"]]
    else:
        benefit = [Fraction(b["beta"] * k ** b["gamma"]) for k in range(n + 1)]
    pen = [Fraction(0)] * n
    d_e = d_b = Fraction(0)
    for iv in doc["interventions"]:
        if iv["kind"] == "effort":
            d_e += Fraction(iv["delta_expose"])
            d_b += Fraction(iv["delta_buffer"])
        elif iv["kind"] == "mechanism":
            ce = Fraction(iv["capped_cost_expose"])
        else:
            for j in range(n):
                p = Fraction(iv["p0"]) + Fraction(iv["p_slope"]) * j / (n - 1)
                pen[j] += min(Fraction(1), max(Fraction(0), p)) * Fraction(iv["penalty"])
    return [benefit[j + 1] - benefit[j] - (ce - d_e) + (cb - d_b) + pen[j] for j in range(n)]


def _files(workload: str, seed: int, rounds: int = 3) -> list[str]:
    return [job.scenario_text() + job.initial
            for r in range(rounds) for job in round_jobs(workload, seed, r)]


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for workload in WORKLOADS:
            self.assertEqual(_files(workload, 7), _files(workload, 7))

    def test_different_seed_gives_different_files(self):
        for workload in WORKLOADS:
            a, b = _files(workload, 7), _files(workload, 8)
            self.assertEqual(len(a), len(b))
            self.assertTrue(all(x != y for x, y in zip(a, b)), workload)

    def test_every_document_parses(self):
        for workload in WORKLOADS:
            for r in range(4):
                for job in round_jobs(workload, 3, r):
                    scenario, _ = parse_scenario_document(job.doc)
                    self.assertEqual(scenario.n, job.n)


class AnalyzeDraws(unittest.TestCase):
    def test_gain_to_expose_never_decreases(self):
        """Exact arithmetic on the drawn parameters, so the Nash set of an
        analyze job can only hold the two pole profiles."""
        for seed in range(12):
            for r in range(3):
                for job in round_jobs("analyze", seed, r):
                    gains = exact_gains(job.doc)
                    self.assertEqual(len(gains), job.n)
                    self.assertTrue(all(a <= b for a, b in zip(gains, gains[1:])),
                                    f"seed {seed} round {r} N={job.n}")


if __name__ == "__main__":
    unittest.main()
