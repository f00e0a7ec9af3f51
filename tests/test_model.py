"""Baseline game: benefit curves, payoffs, welfare, validators."""

from __future__ import annotations

import random
from dataclasses import fields

import pytest

from wardgames import (
    Action,
    ActionProfile,
    ConcaveBenefit,
    LinearBenefit,
    Mechanism,
    Scenario,
    ScenarioError,
    TableBenefit,
    ThresholdBenefit,
    Ward,
    benefit_at_count,
    effective_payoff,
    symmetric_scenario,
    validate_scenario,
    welfare,
)
from wardgames.model import profile_string
from conftest import random_scenario


class TestBenefit:
    def test_linear_zero_exposers_yields_zero(self):
        assert benefit_at_count(LinearBenefit(0.3), 0) == 0.0

    def test_linear_scales_with_count(self):
        assert benefit_at_count(LinearBenefit(0.3), 4) == pytest.approx(1.2)

    def test_threshold_below_tau_is_zero(self):
        assert benefit_at_count(ThresholdBenefit(tau=4, beta=3.0), 3) == 0.0

    def test_threshold_at_and_above_tau(self):
        spec = ThresholdBenefit(tau=2, beta=3.0)
        assert benefit_at_count(spec, 2) == 3.0
        assert benefit_at_count(spec, 4) == 3.0

    def test_concave_power(self):
        assert benefit_at_count(ConcaveBenefit(2.0, 0.5), 4) == pytest.approx(4.0)

    def test_table_lookup(self):
        spec = TableBenefit((0.0, 0.1, 0.5, 0.6))
        assert benefit_at_count(spec, 2) == 0.5

    def test_out_of_range_count_rejected(self):
        with pytest.raises(ScenarioError):
            benefit_at_count(LinearBenefit(0.3), -1)
        with pytest.raises(ScenarioError):
            benefit_at_count(LinearBenefit(0.3), 5, n=4)
        with pytest.raises(ScenarioError):
            benefit_at_count(TableBenefit((0.0, 1.0, 2.0)), 3)

    def test_monotone_nondecreasing_for_closed_forms(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 10)
            spec = random.Random(rng.random()).choice(
                [
                    LinearBenefit(rng.uniform(0, 2)),
                    ThresholdBenefit(tau=rng.randint(1, n), beta=rng.uniform(0, 2)),
                    ConcaveBenefit(rng.uniform(0.1, 2), rng.uniform(0.1, 1.0)),
                ]
            )
            vals = [benefit_at_count(spec, k, n) for k in range(n + 1)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_params_rejected(self):
        with pytest.raises(ScenarioError):
            LinearBenefit(-0.1)
        with pytest.raises(ScenarioError):
            ThresholdBenefit(tau=0, beta=1.0)
        with pytest.raises(ScenarioError):
            ConcaveBenefit(1.0, 1.5)
        with pytest.raises(ScenarioError):
            TableBenefit((0.0, float("inf"), 1.0))


class TestProfile:
    def test_string_round_trip(self):
        p = ActionProfile.from_string("EBBE")
        assert str(p) == "EBBE"
        assert p.exposer_count == 2
        assert p.mask == 0b1001

    def test_mask_round_trip(self):
        for mask in range(16):
            p = ActionProfile.from_mask(mask, 4)
            assert p.mask == mask
            assert p.exposer_count == bin(mask).count("1")

    def test_mask_string_equals_profile_string(self):
        rng = random.Random(97)
        for n in (1, 2, 63, 64, 200):
            masks = [0, (1 << n) - 1, 1, 1 << (n - 1)]
            masks += [rng.getrandbits(n) for _ in range(50)]
            for mask in masks:
                assert profile_string(mask, n) == str(ActionProfile.from_mask(mask, n))

    def test_bad_string_rejected(self):
        with pytest.raises(ScenarioError):
            ActionProfile.from_string("EBXB")

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("bad", ["E", 1, None, True])
    def test_non_action_entry_named(self, position, bad):
        acts = [Action.EXPOSE, Action.BUFFER] * 3 + [Action.EXPOSE]
        acts[position] = bad
        if position < 6:
            acts[6] = "later"  # only the first bad entry is named
        with pytest.raises(ScenarioError) as exc:
            ActionProfile(tuple(acts))
        assert str(exc.value) == f"profile entries must be Action, got {bad!r}"

    def test_exposer_count_of_derived_profiles(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 9)
            mask = rng.getrandbits(n)
            p = ActionProfile.from_mask(mask, n)
            assert p.exposer_count == bin(mask).count("1")
            assert ActionProfile.from_string(str(p)).exposer_count == p.exposer_count
            i = rng.randrange(n)
            q = p.with_action(i, p.actions[i].flipped())
            assert q.exposer_count == bin(mask ^ 1 << i).count("1")
            assert q.with_action(i, p.actions[i]).exposer_count == p.exposer_count
            assert p.exposer_count == bin(mask).count("1")


class TestScenarioValidation:
    def test_needs_two_wards(self):
        with pytest.raises(ScenarioError):
            Scenario((Ward(1.0, 0.5),), LinearBenefit(0.1))

    def test_table_length_must_match(self):
        with pytest.raises(ScenarioError):
            symmetric_scenario(4, 2.0, 1.0, TableBenefit((0.0, 1.0, 2.0)))

    def test_tau_bounded_by_n(self):
        with pytest.raises(ScenarioError):
            symmetric_scenario(3, 2.0, 1.0, ThresholdBenefit(tau=4, beta=1.0))

    def test_per_ward_caps_length_checked(self):
        with pytest.raises(ScenarioError):
            symmetric_scenario(
                4, 2.0, 1.0, LinearBenefit(0.3), [Mechanism((1.0, 1.0))]
            )

    @pytest.mark.parametrize("benefit, interventions, line", [
        (TableBenefit((0.0, 1.0, 2.0)), (),
         "benefit.values: expected exactly 5 entries for 4 wards, got 3"),
        (TableBenefit((0.0, 1.0)), (),
         "benefit.values: expected exactly 5 entries for 4 wards, got 2"),
        (ThresholdBenefit(tau=5, beta=1.0), (),
         "benefit.tau: expected a threshold in [1, 4], got 5"),
        (LinearBenefit(0.3), (Mechanism(1.0), Mechanism((1.0, 1.0))),
         "interventions[1].capped_cost_expose: expected 4 per-ward entries, got 2"),
    ])
    def test_cross_field_refusal_names_its_path_once(self, benefit, interventions, line):
        with pytest.raises(ScenarioError) as info:
            Scenario((Ward(2.0, 1.0),) * 4, benefit, interventions)
        assert str(info.value) == line
        path = line.split(":")[0]
        assert str(info.value).count(path) == 1

    def test_negative_costs_rejected(self):
        with pytest.raises(ScenarioError):
            Ward(-1.0, 0.5)

    def test_ward_is_its_two_costs(self):
        assert [f.name for f in fields(Ward)] == ["cost_expose", "cost_buffer"]
        s = symmetric_scenario(3, 2.0, 1.0, LinearBenefit(0.3))
        assert s.wards == (Ward(2.0, 1.0),) * 3

    def test_asymmetry_warning(self):
        s = symmetric_scenario(3, 1.0, 1.5, LinearBenefit(0.1))
        warnings = validate_scenario(s)
        assert any("asymmetry" in w for w in warnings)

    def test_near_indifference_warning(self):
        # marginal benefit 2.0 exceeds the cost gap 1.0
        s = symmetric_scenario(3, 2.0, 1.0, LinearBenefit(2.0))
        warnings = validate_scenario(s)
        assert any("near-indifference" in w for w in warnings)

    def test_non_reducing_cap_warning(self):
        s = symmetric_scenario(3, 2.0, 1.0, LinearBenefit(0.1), [Mechanism(2.5)])
        warnings = validate_scenario(s)
        assert any("does not reduce" in w for w in warnings)

    def test_clean_scenario_has_no_warnings(self, s0):
        assert validate_scenario(s0) == []


class TestPayoff:
    def test_all_buffer_payoff(self, s0):
        assert effective_payoff(s0, ActionProfile.all_buffer(4), 0) == -1.0

    def test_unilateral_expose_payoff(self, s0):
        assert effective_payoff(s0, ActionProfile.from_string("EBBB"), 0) == pytest.approx(-1.7)

    def test_zero_cost_zero_benefit_is_zero(self):
        s = symmetric_scenario(3, 0.0, 0.0, LinearBenefit(0.0))
        for mask in range(8):
            p = ActionProfile.from_mask(mask, 3)
            assert all(effective_payoff(s, p, i) == 0.0 for i in range(3))

    def test_length_mismatch_rejected(self, s0):
        with pytest.raises(ScenarioError):
            effective_payoff(s0, ActionProfile.all_buffer(3), 0)
        with pytest.raises(ScenarioError):
            effective_payoff(s0, ActionProfile.all_buffer(4), 4)

    def test_payoff_depends_on_others_only_through_count(self):
        rng = random.Random(11)
        for _ in range(30):
            s = random_scenario(rng, symmetric=True, with_interventions=True)
            n = s.n
            mask = rng.randrange(1 << n)
            p = ActionProfile.from_mask(mask, n)
            ward = rng.randrange(n)
            others = [i for i in range(n) if i != ward]
            rng.shuffle(others)
            permuted = [Action.BUFFER] * n
            permuted[ward] = p.actions[ward]
            for src, dst in zip([i for i in range(n) if i != ward], others):
                permuted[dst] = p.actions[src]
            q = ActionProfile(tuple(permuted))
            assert effective_payoff(s, q, ward) == effective_payoff(s, p, ward)


class TestWelfare:
    def test_all_expose_welfare(self, s0):
        assert welfare(s0, ActionProfile.all_expose(4)) == -3.2

    def test_all_buffer_welfare(self, s0):
        assert welfare(s0, ActionProfile.all_buffer(4)) == -4.0

    def test_wedge_is_exactly_point_eight(self, s0):
        all_e = welfare(s0, ActionProfile.all_expose(4))
        all_b = welfare(s0, ActionProfile.all_buffer(4))
        assert all_e - all_b == (-3.2) - (-4.0)
        assert all_e - all_b == pytest.approx(0.8, abs=1e-12)

    def test_welfare_strictly_increasing_in_exposers(self, s0):
        # welfare(k) = 0.2 k - 4 in S0, so all-Expose is the unique optimum
        vals = [
            welfare(s0, ActionProfile.from_mask((1 << k) - 1, 4)) for k in range(5)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_scenario_welfare_zero(self):
        s = symmetric_scenario(3, 0.0, 0.0, LinearBenefit(0.0))
        assert welfare(s, ActionProfile.from_string("EBE")) == 0.0

    def test_permutation_invariance_for_symmetric_wards(self):
        rng = random.Random(23)
        for _ in range(20):
            s = random_scenario(rng, symmetric=True, with_interventions=True)
            n = s.n
            mask = rng.randrange(1 << n)
            p = ActionProfile.from_mask(mask, n)
            acts = list(p.actions)
            rng.shuffle(acts)
            q = ActionProfile(tuple(acts))
            assert welfare(s, p) == welfare(s, q)
