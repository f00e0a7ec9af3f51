"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS` line once its assertions have all
held (run with `pytest -s tests/test_acceptance.py` to see them). Every
tolerance is pinned here.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from wardgames import (
    Action,
    ActionProfile,
    Classification,
    EffortReduction,
    LinearBenefit,
    Mechanism,
    Observability,
    Scenario,
    Stability,
    ThresholdBenefit,
    Ward,
    critical_threshold,
    enumerate_nash,
    flip_conditions,
    integrate_replicator,
    is_nash,
    symmetric_scenario,
)
from wardgames.cli import main
from conftest import nash_list, random_scenario, scan_nash


def _pass(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def nash_set(report):
    return {(p.mask, strict) for p, strict in report.nash_profiles}


def test_criterion_01_baseline_wedge(s0):
    report = enumerate_nash(s0)
    assert nash_set(report) == {(0b0000, True)}
    opt_profile, opt_welfare = report.welfare_optimum
    assert str(opt_profile) == "EEEE"
    assert opt_welfare == -3.2
    assert opt_welfare - report.welfare_gap == -4.0
    assert report.welfare_gap == (-3.2) - (-4.0)
    assert report.welfare_gap == pytest.approx(0.8, abs=1e-12)
    _pass(1, "S0 gives unique strict Nash BBBB, optimum EEEE, wedge 0.8 exact")


def test_criterion_02_effort_reduction_invariance():
    rng = random.Random(2024)
    deltas = [0.1 * j for j in range(1, 21)]
    for trial in range(100):
        s = random_scenario(rng, max_n=8, with_interventions=(trial % 3 == 0))
        delta = rng.choice(deltas)
        shifted = Scenario(
            s.wards, s.benefit, s.interventions + (EffortReduction(delta, delta),)
        )
        before = enumerate_nash(s)
        after = enumerate_nash(shifted)
        assert nash_set(before) == nash_set(after)
        assert before.dominant_strategy == after.dominant_strategy
        assert before.classification is after.classification
    _pass(2, "uniform effort reduction left 100 randomized equilibria untouched")


def test_criterion_03_effort_reduction_flip(s0):
    s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.0, 0.0),))
    result = critical_threshold(
        s, "interventions[0].delta_expose", 0.0, 1.0, "all_buffer_not_nash"
    )
    assert result.critical_value == pytest.approx(0.7, abs=1e-6)
    a, b = result.bracket
    assert a <= 0.7 <= b and b == math.nextafter(a, math.inf)
    _pass(3, "delta_expose threshold = 0.7 within 1e-6, matching the margin-zero point")


def test_criterion_04_observability_threshold(s0):
    s = Scenario(s0.wards, s0.benefit, (Observability(p0=0.5, p_slope=0.0, penalty=0.0),))
    result = critical_threshold(
        s, "interventions[0].penalty", 0.0, 5.0, "all_buffer_not_nash"
    )
    closed_form = (2.0 - 1.0 - s0.benefit_at(1)) / 0.5
    assert result.critical_value == pytest.approx(1.4, abs=1e-6)
    assert result.critical_value == pytest.approx(closed_form, abs=1e-6)
    a, b = result.bracket
    assert a <= closed_form <= b and b == math.nextafter(a, math.inf)

    strong = Scenario(s0.wards, s0.benefit, (Observability(p0=0.5, penalty=2.0),))
    weak = Scenario(s0.wards, s0.benefit, (Observability(p0=0.5, penalty=1.0),))
    assert nash_set(enumerate_nash(strong)) == {(0b1111, True)}
    assert nash_set(enumerate_nash(weak)) == {(0b0000, True)}
    _pass(4, "penalty threshold 1.4 = (c_E - c_B - B(1))/p; F=2 -> all-E, F=1 -> all-B")


def test_criterion_05_mechanism_flip(s0):
    s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
    assert nash_set(enumerate_nash(s)) == {(0b1111, True)}
    result = critical_threshold(
        s, "interventions[0].capped_cost_expose", 0.0, 2.0, "all_expose_nash"
    )
    closed_form = 1.0 + s0.benefit_at(1)
    assert result.critical_value == pytest.approx(1.3, abs=1e-6)
    assert result.critical_value == pytest.approx(closed_form, abs=1e-6)
    a, b = result.bracket
    assert a <= closed_form <= b and b == math.nextafter(a, math.inf)
    _pass(5, "cap 1.2 makes all-E the unique Nash; cap threshold 1.3 = c_B + B(1)")


def test_criterion_06_per_ward_blocking(s0):
    wards = s0.wards[:3] + (Ward(5.0, 1.0),)
    per_ward = Scenario(wards, s0.benefit, (Mechanism((1.2, 1.2, 1.2, 5.0)),))
    report = flip_conditions(per_ward)
    assert report.blocking_wards == frozenset({3})
    assert not is_nash(per_ward, ActionProfile.all_expose(4)).is_nash

    broadcast = Scenario(wards, s0.benefit, (Mechanism(1.2),))
    report2 = flip_conditions(broadcast)
    assert report2.blocking_wards == frozenset()
    assert is_nash(broadcast, ActionProfile.all_expose(4)).is_nash
    _pass(6, "uncapped expensive ward blocks all-E; broadcasting the cap unblocks it")


def test_criterion_07_veto_game(v0):
    report = enumerate_nash(v0)
    assert nash_set(report) == {(0b0000, True), (0b1111, True)}
    assert report.classification is Classification.BISTABLE
    _pass(7, "V0 has exactly the two strict pole equilibria and is Bistable")


def test_criterion_08_replicator_fixed_point(v0):
    x_star = (1.0 / 3.0) ** (1.0 / 3.0)
    result = integrate_replicator(v0, 0.5, t_end=50.0)
    interior = [fp for fp in result.fixed_points if 0.0 < fp.x < 1.0]
    assert len(interior) == 1
    assert interior[0].x == pytest.approx(x_star, abs=1e-6)
    assert interior[0].stability is Stability.UNSTABLE
    below = integrate_replicator(v0, 0.68, t_end=50.0)
    above = integrate_replicator(v0, 0.70, t_end=50.0)
    assert below.trajectory[-1][1] == pytest.approx(0.0, abs=1e-3)
    assert above.trajectory[-1][1] == pytest.approx(1.0, abs=1e-3)
    _pass(8, "V0 interior point (1/3)^(1/3) unstable; 0.68 -> 0 and 0.70 -> 1")


def test_criterion_09_oracle_equivalence():
    # N is drawn from 2..8, except that every 50th scenario takes N = 12, 11,
    # 10, 9 in turn, which keeps the 2^N is_nash scans within a few seconds
    rng = random.Random(909)
    for trial in range(200):
        n = (12, 11, 10, 9)[trial // 50] if trial % 50 == 49 else rng.randint(2, 8)
        s = random_scenario(
            rng, n=n, symmetric=trial % 2 == 0, with_interventions=True
        )
        eps = 0.0 if trial % 4 < 2 else rng.uniform(0.01, 0.3)
        assert nash_list(enumerate_nash(s, epsilon=eps)) == scan_nash(s, eps)
    _pass(
        9,
        "enumerator matched the 2^N is_nash scan, strict flags included, on 200 "
        "symmetric and asymmetric scenarios, N <= 12, epsilon 0 and > 0",
    )


def test_criterion_10_determinism_and_performance(tmp_path, capsys):
    doc = {
        "n_wards": 16,
        "wards": {"symmetric": {"cost_expose": 2.0, "cost_buffer": 1.0}},
        "benefit": {"kind": "linear", "beta_per_exposer": 0.3},
        "interventions": [],
    }
    scenario_path = tmp_path / "n16.json"
    scenario_path.write_text(json.dumps(doc))

    start = time.perf_counter()
    assert main(["analyze", str(scenario_path)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    capsys.readouterr()  # drain the timing run

    outputs = []
    for run in range(3):
        out = tmp_path / f"report_{run}.json"
        assert main(["analyze", str(scenario_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes() + capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    _pass(10, f"N=16 analyze in {elapsed:.2f}s; bytes identical across 3 runs")
