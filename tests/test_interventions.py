"""Archetype transforms: identities, isolation properties, composition."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import pytest

from wardgames import (
    Action,
    ActionProfile,
    EffortReduction,
    LinearBenefit,
    Mechanism,
    MechanismMode,
    NumericalError,
    Observability,
    Scenario,
    ScenarioError,
    TableBenefit,
    ThresholdBenefit,
    Ward,
    critical_threshold,
    detection_probability,
    effective_payoff,
    enumerate_nash,
    flip_conditions,
    integrate_replicator,
    payoff_tables,
    symmetric_scenario,
    welfare,
)
from wardgames.interventions import buffering_penalty

from conftest import (
    assert_classes,
    interchangeable_edge_scenarios,
    random_scenario,
    repeated_costs_scenario,
)


def all_profiles(n):
    return [ActionProfile.from_mask(m, n) for m in range(1 << n)]


class TestEffortReduction:
    def test_expose_delta_applied(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.4, 0.0),))
        p = ActionProfile.from_string("EBBB")
        assert effective_payoff(s0, p, 0) == pytest.approx(-1.7)
        assert effective_payoff(s, p, 0) == pytest.approx(-1.3)
        assert effective_payoff(s, p, 1) == effective_payoff(s0, p, 1)

    def test_zero_deltas_identity(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.0, 0.0),))
        for p in all_profiles(4):
            for i in range(4):
                assert effective_payoff(s, p, i) == effective_payoff(s0, p, i)

    def test_buffer_delta_applied(self, s0):
        s = Scenario(s0.wards, s0.benefit, (EffortReduction(0.0, 0.4),))
        p = ActionProfile.from_string("EBBB")
        assert effective_payoff(s, p, 1) == pytest.approx(0.3 - 1.0 + 0.4)
        assert effective_payoff(s, ActionProfile.all_buffer(4), 0) == pytest.approx(-0.6)
        assert effective_payoff(s, p, 0) == effective_payoff(s0, p, 0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ScenarioError):
            EffortReduction(-0.1, 0.0)

    def test_uniform_delta_shifts_every_payoff(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_scenario(rng, with_interventions=True)
            delta = rng.uniform(0.1, 2.0)
            shifted = Scenario(
                s.wards,
                s.benefit,
                s.interventions + (EffortReduction(delta, delta),),
            )
            for p in all_profiles(s.n)[:: max(1, (1 << s.n) // 8)]:
                for i in range(s.n):
                    assert effective_payoff(shifted, p, i) == pytest.approx(
                        effective_payoff(s, p, i) + delta, abs=1e-12
                    )


class TestObservability:
    def test_constant_probability(self):
        params = Observability(p0=0.5, p_slope=0.0, penalty=1.0)
        for k in range(4):
            assert detection_probability(params, k, 5) == 0.5

    def test_affine_probability(self):
        params = Observability(p0=0.0, p_slope=1.0, penalty=1.0)
        assert detection_probability(params, 3, 4) == 1.0

    def test_clamped_probability(self):
        params = Observability(p0=0.9, p_slope=0.5, penalty=1.0)
        assert detection_probability(params, 3, 4) == 1.0
        low = Observability(p0=0.0, p_slope=-1.0, penalty=1.0)
        assert detection_probability(low, 3, 4) == 0.0

    def test_out_of_range_k_others(self):
        params = Observability(p0=0.5, penalty=1.0)
        with pytest.raises(ScenarioError):
            detection_probability(params, 4, 4)

    def test_penalty_hits_buffer_only(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Observability(p0=0.5, p_slope=0.0, penalty=2.1),))
        assert effective_payoff(s, ActionProfile.all_buffer(4), 0) == pytest.approx(-2.05)
        assert effective_payoff(s, ActionProfile.from_string("EBBB"), 0) == -1.7

    def test_zero_penalty_identity(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Observability(p0=0.5, p_slope=0.3, penalty=0.0),))
        for p in all_profiles(4):
            for i in range(4):
                assert effective_payoff(s, p, i) == effective_payoff(s0, p, i)

    def test_never_changes_expose_payoffs(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_scenario(rng)
            obs = Observability(
                p0=rng.uniform(0, 1), p_slope=rng.uniform(-1, 1), penalty=rng.uniform(0, 3)
            )
            with_obs = Scenario(s.wards, s.benefit, s.interventions + (obs,))
            for p in all_profiles(s.n)[:: max(1, (1 << s.n) // 8)]:
                for i in range(s.n):
                    if p.actions[i] is Action.EXPOSE:
                        assert effective_payoff(with_obs, p, i) == effective_payoff(s, p, i)


class TestMechanism:
    def test_expose_cost_capped(self, s0):
        params = Mechanism(1.2)
        s = symmetric_scenario(4, 2.0, 1.0, LinearBenefit(0.3), [params])
        for p in all_profiles(4):
            for i in range(4):
                if p.actions[i] is Action.EXPOSE:
                    assert effective_payoff(s, p, i) == s.benefit_at(p.exposer_count) - 1.2
        # capped exposing against all-buffer others now beats buffering
        u_e = effective_payoff(s, ActionProfile.from_string("EBBB"), 0)
        assert u_e == pytest.approx(-0.9)
        assert u_e >= effective_payoff(s, ActionProfile.all_buffer(4), 0)

    def test_buffer_cost_untouched(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        for p in all_profiles(4):
            for i in range(4):
                if p.actions[i] is Action.BUFFER:
                    assert effective_payoff(s, p, i) == s.benefit_at(p.exposer_count) - 1.0

    def test_cap_equal_to_cost_is_identity(self, s0):
        with_cap = Scenario(s0.wards, s0.benefit, (Mechanism(2.0),))
        for p in all_profiles(4):
            for i in range(4):
                assert effective_payoff(with_cap, p, i) == effective_payoff(s0, p, i)

    def test_per_ward_sequence_mismatch(self, s0):
        short = Mechanism((1.0, 1.0))
        with pytest.raises(ScenarioError):
            Scenario(s0.wards, s0.benefit, (short,))
        # replace() re-runs the check, so no path reaches the engine with it
        with pytest.raises(ScenarioError):
            dataclasses.replace(Scenario(s0.wards, s0.benefit), interventions=(short,))

    def test_never_changes_buffer_payoffs(self):
        rng = random.Random(9)
        for _ in range(20):
            s = random_scenario(rng)
            cap = rng.uniform(0.0, 2.0)
            with_mech = Scenario(s.wards, s.benefit, s.interventions + (Mechanism(cap),))
            for p in all_profiles(s.n)[:: max(1, (1 << s.n) // 8)]:
                for i in range(s.n):
                    if p.actions[i] is Action.BUFFER:
                        assert effective_payoff(with_mech, p, i) == effective_payoff(s, p, i)

    def test_absorb_welfare_uses_capped_costs(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2, MechanismMode.ABSORB),))
        assert effective_payoff(s, ActionProfile.all_expose(4), 0) == 0.0
        assert welfare(s, ActionProfile.all_expose(4)) == 0.0

    def test_redistribute_welfare_charges_system(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2, MechanismMode.REDISTRIBUTE),))
        # wards see the capped cost, the system pays the remainder
        assert effective_payoff(s, ActionProfile.all_expose(4), 0) == 0.0
        assert welfare(s, ActionProfile.all_expose(4)) == pytest.approx(-3.2)
        assert welfare(s, ActionProfile.all_buffer(4)) == -4.0


class TestComposition:
    def test_empty_composition_is_baseline(self, s0):
        # u_i = B(k) - c_i(a_i) exactly, with no intervention applied
        for p in all_profiles(4):
            for i, (w, a) in enumerate(zip(s0.wards, p.actions)):
                cost = w.cost_expose if a is Action.EXPOSE else w.cost_buffer
                assert effective_payoff(s0, p, i) == s0.benefit_at(p.exposer_count) - cost

    def test_worked_stack(self, s0):
        s = Scenario(
            s0.wards,
            s0.benefit,
            (
                EffortReduction(0.4, 0.4),
                Observability(p0=0.5, p_slope=0.0, penalty=1.4),
            ),
        )
        out = effective_payoff(s, ActionProfile.all_buffer(4), 0)
        assert out == pytest.approx(-1.3)

    def test_effort_and_mechanism_commute(self):
        rng = random.Random(17)
        for _ in range(20):
            s = random_scenario(rng)
            er = EffortReduction(rng.uniform(0, 1), rng.uniform(0, 1))
            mech = Mechanism(rng.uniform(0, 2))
            a = Scenario(s.wards, s.benefit, (er, mech))
            b = Scenario(s.wards, s.benefit, (mech, er))
            for p in all_profiles(s.n)[:: max(1, (1 << s.n) // 8)]:
                for i in range(s.n):
                    assert effective_payoff(a, p, i) == effective_payoff(b, p, i)

    def test_effort_stacks_additively(self, s0):
        stacked = Scenario(
            s0.wards, s0.benefit, (EffortReduction(0.2, 0.1), EffortReduction(0.3, 0.2))
        )
        merged = Scenario(s0.wards, s0.benefit, (EffortReduction(0.5, 0.3),))
        p = ActionProfile.from_string("EBEB")
        for i in range(4):
            assert effective_payoff(stacked, p, i) == pytest.approx(effective_payoff(merged, p, i))

    def test_mechanism_last_writer_wins(self, s0):
        two_caps = Scenario(s0.wards, s0.benefit, (Mechanism(0.5), Mechanism(1.2)))
        last_only = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        for p in all_profiles(4):
            for i in range(4):
                assert effective_payoff(two_caps, p, i) == effective_payoff(last_only, p, i)

    def test_observability_penalties_stack(self, s0):
        stacked = Scenario(
            s0.wards,
            s0.benefit,
            (
                Observability(p0=0.5, penalty=1.0),
                Observability(p0=0.25, penalty=2.0),
            ),
        )
        u = effective_payoff(stacked, ActionProfile.all_buffer(4), 0)
        assert u == pytest.approx(-1.0 - 0.5 - 0.5)

    def test_tables_match_effective_payoff(self):
        rng = random.Random(31)
        scenarios = [random_scenario(rng, with_interventions=True) for _ in range(20)]
        # wards repeating a cost pair share every deviation check
        scenarios += [
            repeated_costs_scenario(rng, with_interventions=True) for _ in range(20)
        ]
        for s in scenarios:
            tables = payoff_tables(s)
            for p in all_profiles(s.n)[:: max(1, (1 << s.n) // 16)]:
                k = p.exposer_count
                for i in range(s.n):
                    if p.actions[i] is Action.EXPOSE:
                        expected = tables.expose(i, k - 1)
                    else:
                        expected = tables.buffer(i, k)
                    assert effective_payoff(s, p, i) == expected
                    assert str(effective_payoff(s, p, i)) == str(expected)

    def test_penalty_vector_is_buffering_penalty(self):
        # several penalties sum in list order, so each entry is the oracle's float
        rng = random.Random(37)
        for _ in range(60):
            s = random_scenario(rng, with_interventions=True)
            extra = tuple(
                Observability(rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0),
                              rng.choice((0.0, rng.uniform(0.0, 5.0))))
                for _ in range(rng.randint(1, 4)))
            s = dataclasses.replace(s, interventions=s.interventions + extra)
            expected = tuple(buffering_penalty(s, j) for j in range(s.n))
            assert repr(payoff_tables(s).penalty) == repr(expected)

    def test_signed_zero_costs_keep_their_sign(self):
        # 0.0 == -0.0, but they round apart: every entry keeps its own sign
        wards = (Ward(0, 0.0, 0.0), Ward(1, -0.0, 0.0), Ward(2, 0.0, 0.0))
        s = Scenario(wards, LinearBenefit(-0.0))
        zeros = payoff_tables(s)
        assert [str(zeros.expose(i, 0)) for i in range(3)] == ["-0.0", "0.0", "-0.0"]
        for i in range(3):
            p = ActionProfile.from_mask(1 << i, 3)
            assert str(effective_payoff(s, p, i)) == str(zeros.expose(i, 0))

    def test_compiled_tables_stay_small(self):
        # O(N) numbers: a 512-ward table of 2N^2 floats would take ~17 MB
        wards = tuple(Ward(i, 1.8 + 0.05 * i / 32, 1.0) for i in range(512))
        s = Scenario(wards, LinearBenefit(0.3), (Observability(0.5, 0.2, 1.0),))
        tracemalloc.start()
        try:
            tables = payoff_tables(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert tables.expose(511, 0) == effective_payoff(
            s, ActionProfile.from_string("B" * 511 + "E"), 511
        )


class TestSymmetryDetection:
    def test_symmetric_scenarios_detected(self, s0):
        assert payoff_tables(s0).classes == ((0, 0b1111),)

    def test_broadcast_cap_keeps_symmetry(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism(1.2),))
        assert payoff_tables(s).classes == ((0, 0b1111),)

    def test_per_ward_caps_break_symmetry(self, s0):
        s = Scenario(s0.wards, s0.benefit, (Mechanism((1.2, 1.2, 1.2, 0.9)),))
        assert payoff_tables(s).classes == ((0, 0b0111), (3, 0b1000))

    def test_cost_differences_break_symmetry(self):
        wards = (Ward(0, 2.0, 1.0), Ward(1, 2.5, 1.0), Ward(2, 2.0, 1.0))
        tables = payoff_tables(Scenario(wards, LinearBenefit(0.3)))
        assert tables.classes == ((0, 0b101), (1, 0b010))

    def test_equal_effective_costs_are_symmetric(self):
        # a broadcast cap erases the raw cost differences: payoffs are identical
        cap = [Mechanism(1.2)]
        veto = ThresholdBenefit(tau=3, beta=3.0)
        wards = (Ward(0, 3.0, 1.0), Ward(1, 4.0, 1.0), Ward(2, 3.5, 1.0))
        s = Scenario(wards, veto, tuple(cap))
        same = symmetric_scenario(3, 3.0, 1.0, veto, cap)
        assert payoff_tables(s).classes == ((0, 0b111),)
        assert integrate_replicator(s, 0.5) == integrate_replicator(same, 0.5)
        path = "interventions[0].capped_cost_expose"
        found = critical_threshold(s, path, 0.5, 6.0, "all_expose_nash")
        assert found.bracket == (4.0, math.nextafter(4.0, math.inf))  # cap* = c(B) + beta
        assert found == critical_threshold(same, path, 0.5, 6.0, "all_expose_nash")

    def test_signed_zeros_are_compared_by_bits(self):
        # 0.0 == -0.0, but b - 0.0 and b - -0.0 differ at b = -0.0: four classes
        mixed, negative, _, capped = interchangeable_edge_scenarios()
        assert payoff_tables(mixed).classes == tuple((i, 1 << i) for i in range(4))
        assert payoff_tables(negative).classes == ((0, 0b1111),)
        # redistribute charges differ by ward but are not part of the key
        assert len(set(payoff_tables(capped).charge)) == 5
        assert payoff_tables(capped).classes == ((0, 0b11111),)


def compiled_games():
    """Tables of random, repeated-cost and edge scenarios, with interventions."""
    rng = random.Random(424)
    for trial in range(60):
        if trial % 3 == 2:
            s = repeated_costs_scenario(rng, with_interventions=True)
        else:
            s = random_scenario(rng, symmetric=trial % 3 == 0, with_interventions=True)
        yield payoff_tables(s)
    for s in interchangeable_edge_scenarios():
        yield payoff_tables(s)


class TestClassesAndGains:
    def test_classes_partition_the_wards_by_cost_bits(self):
        counts = set()
        for tables in compiled_games():
            assert_classes(tables)
            counts.add(min(len(tables.classes), 3))
        assert counts == {1, 2, 3}

    def test_gains_equal_gain_to_expose(self):
        for tables in compiled_games():
            n = tables.n
            for k in range(n):
                expected = [tables.gain_to_expose(i, k) for i in range(n)]
                assert repr(tables.gains(k)) == repr(expected)


def entries_and_gains(scenario):
    """Every expose and buffer payoff and deviation gain, by effective_payoff."""
    n = scenario.n
    for i in range(n):
        others = [w for w in range(n) if w != i]
        for j in range(n):
            mask = sum(1 << w for w in others[:j])
            e = effective_payoff(scenario, ActionProfile.from_mask(mask | 1 << i, n), i)
            b = effective_payoff(scenario, ActionProfile.from_mask(mask, n), i)
            yield from (e, b, e - b)


class TestFloatRange:
    def test_overflowing_payoffs_raise_numerical_error(self):
        s = symmetric_scenario(2, 1.7e308, 1.7e308, TableBenefit((-1.7e308,) * 3))
        with pytest.raises(NumericalError, match="^payoff overflow: "):
            payoff_tables(s)

    def test_overflowing_welfare_raises_numerical_error(self):
        s = symmetric_scenario(4, 2.0, 1.0, TableBenefit((1e308,) * 5))
        assert all(map(math.isfinite, entries_and_gains(s)))
        payoff_tables(s)  # the game itself is in range
        with pytest.raises(NumericalError, match="^welfare overflow: 4 x "):
            enumerate_nash(s)

    def test_every_overflow_is_refused_and_every_result_is_finite(self):
        # huge terms of both signs: an analysis either raises NumericalError
        # or reports only finite numbers, and a non-finite payoff or gain is
        # always refused when the game is compiled
        rng = random.Random(23)
        refused = overflowed = analysed = 0
        for _ in range(300):
            n = rng.randint(2, 4)
            scales = rng.sample((1.0, 1e305, 4e307, 1.7e308), 2)

            def big():
                return rng.choice(scales) * rng.random()

            wards = tuple(Ward(i, big(), big()) for i in range(n))
            table = TableBenefit(tuple(rng.choice((-1.0, 1.0)) * big() for _ in range(n + 1)))
            ivs = [Observability(rng.random(), 0.0, big())] if rng.random() < 0.5 else []
            if rng.random() < 0.5:
                ivs.append(Mechanism(big(), rng.choice(list(MechanismMode))))
            s = Scenario(wards, table, tuple(ivs))
            finite = all(map(math.isfinite, entries_and_gains(s)))
            overflowed += not finite
            try:
                report = enumerate_nash(s)
                flip = flip_conditions(s)
            except NumericalError:
                refused += 1
                continue
            assert finite
            analysed += 1
            assert math.isfinite(report.welfare_optimum[1])
            assert report.welfare_gap is None or math.isfinite(report.welfare_gap)
            for w in flip.wards:
                margins = (w.baseline_margin, w.effort_margin,
                           w.observability_margin, w.mechanism_margin)
                assert all(map(math.isfinite, margins))
        assert overflowed and analysed and refused > overflowed
