"""Nash enumeration, best responses, flip conditions, classification."""

from __future__ import annotations

import random
import time
from dataclasses import replace
from itertools import product

import pytest

from wardgames import (
    Action,
    ActionProfile,
    Classification,
    EffortReduction,
    LinearBenefit,
    Mechanism,
    MechanismMode,
    NashCheck,
    Observability,
    ResourceLimitError,
    Scenario,
    ScenarioError,
    TableBenefit,
    ThresholdBenefit,
    Ward,
    best_response,
    effective_payoff,
    enumerate_nash,
    flip_conditions,
    is_nash,
    symmetric_scenario,
    welfare,
)
from conftest import (
    interchangeable_edge_scenarios,
    nash_list,
    random_scenario,
    repeated_costs_scenario,
    scan_nash,
)


def nash_set(report):
    return {(p.mask, strict) for p, strict in report.nash_profiles}


class TestBestResponse:
    def test_buffer_best_against_buffering(self, s0):
        others = (Action.BUFFER,) * 3
        assert best_response(s0, others, 0) == {Action.BUFFER}

    def test_mechanism_flips_best_response(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        others = (Action.BUFFER,) * 3
        assert best_response(s, others, 0) == {Action.EXPOSE}

    def test_exact_tie_returns_both(self):
        s = symmetric_scenario(3, 1.0, 1.0, TableBenefit((0.5, 0.5, 0.5, 0.5)))
        assert best_response(s, (Action.BUFFER, Action.BUFFER), 0) == {
            Action.EXPOSE,
            Action.BUFFER,
        }

    def test_wrong_length_rejected(self, s0):
        with pytest.raises(ScenarioError):
            best_response(s0, (Action.BUFFER,) * 4, 0)


class TestIsNash:
    def test_all_buffer_strict_nash(self, s0):
        ok, violators, strict = is_nash(s0, ActionProfile.all_buffer(4))
        assert ok and strict and violators == frozenset()

    def test_all_expose_not_nash(self, s0):
        ok, violators, strict = is_nash(s0, ActionProfile.all_expose(4))
        assert not ok
        assert violators == frozenset({0, 1, 2, 3})
        assert strict is False

    def test_veto_all_expose_strict_nash(self, v0):
        ok, violators, strict = is_nash(v0, ActionProfile.all_expose(4))
        assert ok and strict and violators == frozenset()

    def test_epsilon_widens_ties(self, s0):
        # margin to deviate from all-Buffer is -0.7; a huge epsilon makes it weak
        ok, _, strict = is_nash(s0, ActionProfile.all_buffer(4), epsilon=0.8)
        assert ok and not strict


def reference_is_nash(
    scenario: Scenario, profile: ActionProfile, epsilon: float = 0.0
) -> NashCheck:
    """is_nash written out with a deviated profile and two effective_payoff
    calls per ward, sharing none of its shortcuts."""
    violators = set()
    strict = True
    for i in range(scenario.n):
        u_cur = effective_payoff(scenario, profile, i)
        dev = profile.with_action(i, profile.actions[i].flipped())
        gain = effective_payoff(scenario, dev, i) - u_cur
        if gain > epsilon:
            violators.add(i)
        if gain >= -epsilon:
            strict = False
    ok = not violators
    return NashCheck(ok, frozenset(violators), strict if ok else False)


class TestIsNashReference:
    def test_equals_reference_on_every_profile(self):
        rng = random.Random(41)
        for trial in range(60):
            if trial % 2:
                s = repeated_costs_scenario(rng, max_n=6, with_interventions=True)
            else:
                s = random_scenario(rng, max_n=6, with_interventions=True)
            profiles = [ActionProfile.from_mask(m, s.n) for m in range(1 << s.n)]
            # an exact margin: one ward's deviation gain, so gain == epsilon occurs
            p, i = rng.choice(profiles), rng.randrange(s.n)
            dev = p.with_action(i, p.actions[i].flipped())
            margin = abs(effective_payoff(s, dev, i) - effective_payoff(s, p, i))
            for epsilon in (0.0, margin):
                for profile in profiles:
                    expected = reference_is_nash(s, profile, epsilon)
                    assert is_nash(s, profile, epsilon) == expected, (s, profile, epsilon)

    def test_best_response_equals_payoff_comparison(self):
        rng = random.Random(43)
        for trial in range(40):
            if trial % 2:
                s = repeated_costs_scenario(rng, max_n=5, with_interventions=True)
            else:
                s = random_scenario(rng, max_n=5, with_interventions=True)
            for mask in range(1 << s.n):
                p = ActionProfile.from_mask(mask, s.n)
                for i in range(s.n):
                    u_e = effective_payoff(s, p.with_action(i, Action.EXPOSE), i)
                    u_b = effective_payoff(s, p.with_action(i, Action.BUFFER), i)
                    others = p.actions[:i] + p.actions[i + 1:]
                    for epsilon in (0.0, abs(u_e - u_b)):
                        payoffs = ((Action.EXPOSE, u_e), (Action.BUFFER, u_b))
                        expected = {a for a, u in payoffs if max(u_e, u_b) - u <= epsilon}
                        assert best_response(s, others, i, epsilon) == expected


class TestEnumerate:
    def test_s0_unique_dominant_buffer(self, s0):
        report = enumerate_nash(s0)
        assert nash_set(report) == {(0b0000, True)}
        assert report.classification is Classification.DOMINANT_BUFFER
        assert report.dominant_strategy == (Action.BUFFER,) * 4
        assert str(report.welfare_optimum[0]) == "EEEE"
        assert report.welfare_optimum[1] == -3.2
        assert report.welfare_gap == (-3.2) - (-4.0)

    def test_v0_bistable(self, v0):
        report = enumerate_nash(v0)
        assert nash_set(report) == {(0b0000, True), (0b1111, True)}
        assert report.classification is Classification.BISTABLE
        assert report.dominant_strategy == (None,) * 4

    def test_mechanism_dominant_expose(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        report = enumerate_nash(s)
        assert nash_set(report) == {(0b1111, True)}
        assert report.classification is Classification.DOMINANT_EXPOSE

    def test_boundary_penalty_all_profiles_weak_nash(self, s0):
        # at pF = 0.7 every ward is exactly indifferent at every profile
        s = Scenario(
            s0.wards, s0.benefit, (Observability(p0=0.5, p_slope=0.0, penalty=1.4),)
        )
        report = enumerate_nash(s)
        masks = {m for m, _ in nash_set(report)}
        assert masks == set(range(16))
        assert all(not strict for _, strict in nash_set(report))
        assert report.classification is Classification.BISTABLE

    def test_dominant_strategy_matches_best_responses(self):
        # a ward's action is strictly dominant iff best_response returns that
        # action alone against every profile of the other wards
        rng = random.Random(53)
        scenarios = interchangeable_edge_scenarios()
        for trial in range(80):
            if trial % 2:
                scenarios.append(repeated_costs_scenario(rng, max_n=7, with_interventions=True))
            else:
                scenarios.append(random_scenario(rng, max_n=7, with_interventions=True))
        dominated = set()
        for s in scenarios:
            for eps in (0.0, 0.25):
                expected = []
                for i in range(s.n):
                    seen = set().union(*(best_response(s, others, i, eps)
                                         for others in product(Action, repeat=s.n - 1)))
                    expected.append(seen.pop() if len(seen) == 1 else None)
                assert enumerate_nash(s, eps).dominant_strategy == tuple(expected), (s, eps)
                dominated |= set(expected)
        assert dominated == {Action.EXPOSE, Action.BUFFER, None}

    def test_matches_is_nash_exhaustively(self):
        rng = random.Random(41)
        for _ in range(25):
            s = random_scenario(rng, max_n=6, with_interventions=True)
            for eps in (0.0, rng.uniform(0.01, 0.3)):
                assert nash_list(enumerate_nash(s, epsilon=eps)) == scan_nash(s, eps)

    def test_fast_path_equals_brute_force(self):
        # symmetric wards: whole orbits in mask order, and the welfare gap and
        # the Bistable class follow from exactly the scanned Nash set
        rng = random.Random(43)
        for _ in range(30):
            s = random_scenario(rng, max_n=10, symmetric=True, with_interventions=True)
            report = enumerate_nash(s)
            scanned = scan_nash(s)
            assert nash_list(report) == scanned
            if scanned:
                best = max(
                    welfare(s, ActionProfile.from_mask(m, s.n)) for m, _ in scanned
                )
                assert report.welfare_gap == report.welfare_optimum[1] - best
            else:
                assert report.welfare_gap is None
            if report.classification in (Classification.BISTABLE, Classification.MIXED_OTHER):
                poles = {0, (1 << s.n) - 1} <= {m for m, _ in scanned}
                assert (report.classification is Classification.BISTABLE) == poles

    def test_asymmetric_n26_lists_only_nash_profiles(self):
        # threshold game, tau = 13: wards 0-13 find exposing worth it when
        # pivotal, wards 14-25 never do, so the Nash set is all-Buffer plus
        # every 13-subset of wards 0-13
        wards = tuple(
            Ward(i, 1.5 + 0.1 * i if i < 14 else 4.5 + 0.1 * i, 1.0 + 0.01 * i)
            for i in range(26)
        )
        s = Scenario(wards, ThresholdBenefit(tau=13, beta=3.0))
        report = enumerate_nash(s)
        cheap = (1 << 14) - 1
        expected = sorted([0] + [cheap & ~(1 << j) for j in range(14)])
        assert nash_list(report) == [(m, True) for m in expected]
        for p, strict in report.nash_profiles:
            assert is_nash(s, p) == (True, frozenset(), strict)
        rng = random.Random(67)
        for _ in range(200):
            mask = rng.getrandbits(26)
            if mask not in expected:
                assert not is_nash(s, ActionProfile.from_mask(mask, 26)).is_nash

    def test_resource_limit_raised_before_materialising(self):
        # dyadic costs with c(E) - c(B) = B(k + 1) - B(k) = 0.5 make every
        # deviation tie exactly, so all 2^23 > 4M profiles are weak Nash
        wards = tuple(Ward(i, 1.5 + 0.25 * i, 1.0 + 0.25 * i) for i in range(23))
        s = Scenario(wards, LinearBenefit(0.5))
        rng = random.Random(71)
        for _ in range(5):
            check = is_nash(s, ActionProfile.from_mask(rng.getrandbits(23), 23))
            assert check.is_nash and not check.strict
        start = time.perf_counter()
        report = enumerate_nash(s)
        assert report.nash_count == 1 << 23
        with pytest.raises(ResourceLimitError):
            report.nash_profiles
        assert time.perf_counter() - start < 1.0

    def test_count_equals_listed_and_scanned_profiles(self):
        rng = random.Random(101)
        for trial in range(60):
            if trial % 3 == 0:
                s = random_scenario(rng, max_n=14, symmetric=True, with_interventions=True)
            elif trial % 3 == 1:
                s = random_scenario(rng, max_n=14, symmetric=False, with_interventions=True)
            else:
                s = repeated_costs_scenario(rng, max_n=14, with_interventions=True)
            eps = 0.0 if trial % 2 == 0 else rng.choice((1e-9, 0.05, 0.3))
            report = enumerate_nash(s, epsilon=eps)
            assert report.nash_count == len(report.nash_masks) == len(report.nash_profiles)
            assert [(p.mask, st) for p, st in report.nash_profiles] == list(report.nash_masks)
            if s.n <= 10:
                assert report.nash_count == len(scan_nash(s, eps))

    def test_uniform_shift_leaves_report_invariant(self):
        rng = random.Random(53)
        for _ in range(20):
            s = random_scenario(rng, with_interventions=True)
            delta = rng.choice([0.1 * j for j in range(1, 21)])
            shifted = Scenario(
                s.wards, s.benefit, s.interventions + (EffortReduction(delta, delta),)
            )
            a = enumerate_nash(s)
            b = enumerate_nash(shifted)
            assert nash_set(a) == nash_set(b)
            assert a.dominant_strategy == b.dominant_strategy
            assert a.classification is b.classification


class TestWelfare:
    def test_optimum_matches_welfare_scan(self):
        # the first maximiser in mask order of a 2^N welfare() scan
        rng = random.Random(73)
        for trial in range(60):
            if trial % 3 == 0:
                s = repeated_costs_scenario(rng, with_interventions=True)
            else:
                s = random_scenario(rng, max_n=8, symmetric=trial % 3 == 1)
            cap = rng.uniform(0.0, max(w.cost_expose for w in s.wards))
            for mode in MechanismMode:
                ivs = s.interventions + (Mechanism(cap, mode),)
                m = Scenario(s.wards, s.benefit, ivs)
                best_mask, best_w = 0, None
                for mask in range(1 << m.n):
                    w = welfare(m, ActionProfile.from_mask(mask, m.n))
                    if best_w is None or w > best_w:
                        best_mask, best_w = mask, w
                opt_profile, opt_w = enumerate_nash(m).welfare_optimum
                assert (opt_profile.mask, opt_w) == (best_mask, best_w)
        # signed zeros, a shared redistribute charge, and equal effective
        # costs with unequal charges, with and without the observability
        # penalty (each scenario's first intervention)
        for s in interchangeable_edge_scenarios():
            for m in (s, replace(s, interventions=s.interventions[1:])):
                scan = [welfare(m, ActionProfile.from_mask(mask, m.n))
                        for mask in range(1 << m.n)]
                opt_profile, opt_w = enumerate_nash(m).welfare_optimum
                assert (opt_profile.mask, repr(opt_w)) == (
                    scan.index(max(scan)), repr(max(scan))), m

    def test_gap_matches_best_scanned_nash(self):
        rng = random.Random(79)
        for trial in range(60):
            if trial % 2:
                s = random_scenario(
                    rng, max_n=8, symmetric=False, with_interventions=True
                )
            else:
                s = repeated_costs_scenario(rng, with_interventions=True)
            for eps in (0.0, rng.uniform(0.01, 0.3)):
                report = enumerate_nash(s, epsilon=eps)
                scanned = scan_nash(s, eps)
                if not scanned:
                    assert report.welfare_gap is None
                    continue
                best = max(
                    welfare(s, ActionProfile.from_mask(m, s.n)) for m, _ in scanned
                )
                assert report.welfare_gap == report.welfare_optimum[1] - best

    def test_optimum_ranks_float_key_ties_exactly(self):
        # the ranking keys of wards 0 and 1 both round to -(2^72 + 2^21) but
        # differ by 2^19, which ward 2's cancelling entries bring back
        wards = (Ward(0, 2.0**73, 2.0**72 - 2.0**21 - 2.0**19),
                 Ward(1, 2.0**73, 2.0**72 - 2.0**21),
                 Ward(2, 2.0**80, 0.0))
        s = Scenario(wards, TableBenefit((0.0, 2.0**72, 0.0, 0.0)))
        scan = [welfare(s, ActionProfile.from_mask(m, 3)) for m in range(8)]
        opt_profile, opt_w = enumerate_nash(s).welfare_optimum
        assert (str(opt_profile), opt_w) == ("BEB", 2621440.0)
        assert (opt_profile.mask, opt_w) == (scan.index(max(scan)), max(scan))

    def test_enumerate_calls_welfare_at_most_twice(self, monkeypatch):
        import wardgames.equilibrium as equilibrium

        calls = []

        def counting(scenario, profile):
            calls.append(profile)
            return welfare(scenario, profile)

        monkeypatch.setattr(equilibrium, "welfare", counting)
        rng = random.Random(83)
        for _ in range(20):
            s = repeated_costs_scenario(rng, with_interventions=True)
            calls.clear()
            report = enumerate_nash(s, epsilon=rng.choice((0.0, 0.25)))
            assert len(calls) == (1 if report.welfare_gap is None else 2)


class TestFlipConditions:
    def test_baseline_margins(self, s0):
        report = flip_conditions(s0)
        for w in report.wards:
            assert w.baseline_margin == pytest.approx(-0.7)
            assert w.baseline_buffer_best

    def test_observability_boundary_margin_zero(self, s0):
        s = Scenario(
            s0.wards, s0.benefit, (Observability(p0=0.5, p_slope=0.0, penalty=1.4),)
        )
        report = flip_conditions(s)
        for w in report.wards:
            assert w.observability_margin == 0.0
            assert w.observability_buffer_holds

    def test_effort_flip(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.9, 0.0),))
        report = flip_conditions(s)
        for w in report.wards:
            assert w.effort_margin == pytest.approx(0.2)
            assert not w.effort_buffer_holds

    def test_per_ward_blocking(self, s0):
        wards = s0.wards[:3] + (Ward(3, 5.0, 1.0),)
        uneven = Scenario(wards, s0.benefit, (Mechanism((1.2, 1.2, 1.2, 5.0)),))
        report = flip_conditions(uneven)
        assert report.blocking_wards == frozenset({3})
        assert not is_nash(uneven, ActionProfile.all_expose(4)).is_nash
        assert report.wards[3].mechanism_margin < -1.0

        broadcast = Scenario(wards, s0.benefit, (Mechanism(1.2),))
        report2 = flip_conditions(broadcast)
        assert report2.blocking_wards == frozenset()
        assert is_nash(broadcast, ActionProfile.all_expose(4)).is_nash

    def test_margins_equal_effective_payoff_differences(self):
        # each margin is effective_payoff(E) - effective_payoff(B) of ward i
        # against all-Buffer others, on the game with that archetype alone
        rng = random.Random(67)
        scenarios = [random_scenario(rng, with_interventions=True) for _ in range(60)]
        scenarios += [
            repeated_costs_scenario(rng, with_interventions=True) for _ in range(20)
        ]
        wards = tuple(Ward(i, 1.5 + 0.5 * i, 0.25 * i) for i in range(4))
        benefit = LinearBenefit(0.3)
        scenarios += [
            # two mechanisms, the last (per-ward caps) governing
            Scenario(wards, benefit, (Mechanism(1.2, MechanismMode.REDISTRIBUTE),
                                      Mechanism((0.5, 1.0, 1.5, 2.0)))),
            # two effort interventions around a sloped detection probability
            Scenario(wards, benefit, (EffortReduction(0.3, 0.1),
                                      Observability(0.2, 0.9, 1.5),
                                      EffortReduction(0.25, 0.5))),
            Scenario(wards, benefit, (Observability(0.7, -0.4, 1.0), Mechanism(0.9))),
            Scenario((Ward(0, 2.0, 1.0), Ward(1, 1.25, 0.5)), benefit,
                     (Observability(0.5, 0.5, 1.2), EffortReduction(0.1, 0.2),
                      Mechanism((0.4, 1.1), MechanismMode.REDISTRIBUTE))),
        ]
        margins = (((), "baseline_margin"), (EffortReduction, "effort_margin"),
                   (Observability, "observability_margin"),
                   (Mechanism, "mechanism_margin"))
        for s in scenarios:
            report = flip_conditions(s)
            for kind, name in margins:
                alone = replace(s, interventions=tuple(
                    iv for iv in s.interventions if isinstance(iv, kind)))
                for i, flip in enumerate(report.wards):
                    expose = effective_payoff(
                        alone, ActionProfile.from_mask(1 << i, s.n), i)
                    buffer = effective_payoff(alone, ActionProfile.all_buffer(s.n), i)
                    assert repr(getattr(flip, name)) == repr(expose - buffer), (
                        s, i, name)

    def test_blocking_iff_all_expose_not_nash(self):
        rng = random.Random(59)
        for _ in range(40):
            s = random_scenario(rng, with_interventions=True)
            report = flip_conditions(s)
            all_e = is_nash(s, ActionProfile.all_expose(s.n))
            assert (report.blocking_wards == frozenset()) == all_e.is_nash

    def test_mechanism_condition_matches_nash_in_linear_family(self):
        # with a linear benefit the margins at both poles coincide, so the
        # per-ward condition agrees with all-Expose membership in the Nash set
        rng = random.Random(61)
        for _ in range(30):
            cb = rng.uniform(0.2, 1.5)
            ce = cb + rng.uniform(0.1, 2.0)
            s = symmetric_scenario(
                rng.randint(2, 8),
                ce,
                cb,
                LinearBenefit(rng.uniform(0.0, 1.0)),
                [Mechanism(rng.uniform(0.0, ce))],
            )
            report = flip_conditions(s)
            holds_all = all(w.mechanism_expose_holds for w in report.wards)
            in_nash = any(
                p.exposer_count == s.n for p, _ in enumerate_nash(s).nash_profiles
            )
            assert holds_all == in_nash
