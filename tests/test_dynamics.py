"""Best-response dynamics, the potential argument, replicator dynamics."""

from __future__ import annotations

import math
import random

import pytest

from wardgames import (
    ActionProfile,
    LinearBenefit,
    NumericalError,
    Scenario,
    ScenarioError,
    Stability,
    ThresholdBenefit,
    TraceTerminal,
    Ward,
    best_response_dynamics,
    exact_potential,
    expected_payoffs_by_strategy,
    integrate_replicator,
    is_nash,
    payoff_tables,
    symmetric_scenario,
)
from conftest import random_scenario

X_STAR = (1.0 / 3.0) ** (1.0 / 3.0)


class TestBestResponseDynamics:
    def test_s0_unravels_to_all_buffer(self, s0):
        trace = best_response_dynamics(s0, ActionProfile.all_expose(4))
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert trace.iterations <= 4
        assert str(trace.steps[-1].profile) == "BBBB"

    def test_already_nash_converges_in_zero_moves(self, s0):
        trace = best_response_dynamics(s0, ActionProfile.all_buffer(4))
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert trace.iterations == 0
        assert len(trace.steps) == 1

    def test_veto_near_miss_unravels(self, v0):
        trace = best_response_dynamics(
            v0, ActionProfile.from_string("EEEB"), tie_break="stay"
        )
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert str(trace.steps[-1].profile) == "BBBB"

    def test_every_move_strictly_improves(self):
        rng = random.Random(67)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            for step in trace.steps[1:]:
                assert step.payoff_delta > 0.0

    def test_converged_profile_is_nash(self):
        rng = random.Random(71)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
            assert is_nash(s, trace.steps[-1].profile).is_nash

    def test_potential_strictly_increases(self):
        rng = random.Random(73)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            phis = [exact_potential(s, step.profile) for step in trace.steps]
            assert all(b > a for a, b in zip(phis, phis[1:]))
            assert trace.iterations <= 1 << s.n

    def test_potential_change_equals_deviator_gain(self):
        rng = random.Random(79)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            mask = rng.randrange(1 << s.n)
            p = ActionProfile.from_mask(mask, s.n)
            i = rng.randrange(s.n)
            q = p.with_action(i, p.actions[i].flipped())
            from wardgames import payoff

            d_u = payoff(s, q, i) - payoff(s, p, i)
            d_phi = exact_potential(s, q) - exact_potential(s, p)
            assert d_phi == pytest.approx(d_u, abs=1e-9)

    def test_random_schedule_deterministic_given_seed(self, v0):
        initial = ActionProfile.from_string("EEBB")
        a = best_response_dynamics(v0, initial, schedule="random", seed=123)
        b = best_response_dynamics(v0, initial, schedule="random", seed=123)
        assert [(str(s.profile), s.mover) for s in a.steps] == [
            (str(s.profile), s.mover) for s in b.steps
        ]

    def test_max_iters_reached(self, s0):
        trace = best_response_dynamics(s0, ActionProfile.all_expose(4), max_iters=2)
        assert trace.terminal is TraceTerminal.MAX_ITERS_REACHED
        assert trace.iterations == 2

    def test_tie_break_moves_to_preferred_action(self):
        # exact indifference everywhere: flat benefit, equal costs
        s = symmetric_scenario(3, 1.0, 1.0, LinearBenefit(0.0))
        stay = best_response_dynamics(s, ActionProfile.all_buffer(3), tie_break="stay")
        assert stay.iterations == 0
        move = best_response_dynamics(
            s, ActionProfile.all_buffer(3), tie_break="expose"
        )
        assert str(move.steps[-1].profile) == "EEE"
        assert all(step.payoff_delta == 0.0 for step in move.steps[1:])

    def test_bad_arguments_rejected(self, s0):
        with pytest.raises(ScenarioError):
            best_response_dynamics(s0, ActionProfile.all_buffer(4), schedule="chaos")
        with pytest.raises(ScenarioError):
            best_response_dynamics(s0, ActionProfile.all_buffer(4), max_iters=0)
        with pytest.raises(ScenarioError):
            best_response_dynamics(s0, ActionProfile.all_buffer(3))

    def test_random_schedule_requires_seed(self, s0):
        with pytest.raises(ScenarioError):
            best_response_dynamics(s0, ActionProfile.all_buffer(4), schedule="random")


class TestExpectedPayoffs:
    def test_veto_at_full_exposure(self, v0):
        u_e, u_b = expected_payoffs_by_strategy(v0, 1.0)
        assert u_e == pytest.approx(1.0)
        assert u_b == pytest.approx(-1.0)

    def test_linear_margin_is_constant(self, s0):
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            u_e, u_b = expected_payoffs_by_strategy(s0, x)
            assert u_e - u_b == pytest.approx(-0.7)

    def test_degenerate_at_zero(self, v0):
        u_e, u_b = expected_payoffs_by_strategy(v0, 0.0)
        assert u_e == v0.benefit_at(1) - 2.0
        assert u_b == v0.benefit_at(0) - 1.0

    def test_asymmetric_rejected(self):
        wards = (Ward(0, 2.0, 1.0), Ward(1, 3.0, 1.0))
        s = Scenario(wards, LinearBenefit(0.3))
        with pytest.raises(ScenarioError):
            expected_payoffs_by_strategy(s, 0.5)

    def test_share_out_of_range_rejected(self, s0):
        with pytest.raises(ScenarioError):
            expected_payoffs_by_strategy(s0, 1.2)


class TestReplicator:
    def test_veto_interior_fixed_point(self, v0):
        result = integrate_replicator(v0, 0.5)
        interior = [fp for fp in result.fixed_points if 0.0 < fp.x < 1.0]
        assert len(interior) == 1
        assert interior[0].x == pytest.approx(X_STAR, abs=1e-9)
        assert interior[0].stability is Stability.UNSTABLE

    def test_veto_pole_stability_and_basins(self, v0):
        result = integrate_replicator(v0, 0.5)
        by_x = {fp.x: fp.stability for fp in result.fixed_points}
        assert by_x[0.0] is Stability.STABLE
        assert by_x[1.0] is Stability.STABLE
        assert len(result.basins) == 2
        low, high = result.basins
        assert (low.lo, low.attractor) == (0.0, 0.0)
        assert low.hi == pytest.approx(X_STAR, abs=1e-9)
        assert (high.hi, high.attractor) == (1.0, 1.0)

    def test_veto_basin_boundary_by_trajectories(self, v0):
        below = integrate_replicator(v0, 0.68)
        above = integrate_replicator(v0, 0.70)
        assert below.trajectory[-1][1] == pytest.approx(0.0, abs=1e-3)
        assert above.trajectory[-1][1] == pytest.approx(1.0, abs=1e-3)

    def test_s0_has_no_interior_fixed_point(self, s0):
        result = integrate_replicator(s0, 0.99)
        assert [fp.x for fp in result.fixed_points] == [0.0, 1.0]
        assert result.trajectory[-1][1] == pytest.approx(0.0, abs=1e-6)

    def test_boundary_trajectories_constant(self, v0):
        for x0 in (0.0, 1.0):
            result = integrate_replicator(v0, x0, t_end=5.0)
            assert all(x == x0 for _, x in result.trajectory)

    def test_trajectory_monotone_between_fixed_points(self, v0):
        result = integrate_replicator(v0, 0.4)
        xs = [x for _, x in result.trajectory]
        assert all(b <= a for a, b in zip(xs, xs[1:]))

    def test_halving_dt_changes_endpoint_below_1e6(self, s0, v0):
        for scenario, x0 in ((s0, 0.99), (v0, 0.5), (v0, 0.8)):
            coarse = integrate_replicator(scenario, x0, dt=0.01)
            fine = integrate_replicator(scenario, x0, dt=0.005)
            assert abs(coarse.trajectory[-1][1] - fine.trajectory[-1][1]) < 1e-6

    def test_interior_points_satisfy_gain_tolerance(self, v0):
        result = integrate_replicator(v0, 0.5)
        for fp in result.fixed_points:
            if 0.0 < fp.x < 1.0:
                u_e, u_b = expected_payoffs_by_strategy(v0, fp.x)
                assert abs(u_e - u_b) <= 1e-9

    def test_bad_inputs_rejected(self, s0):
        with pytest.raises(ScenarioError):
            integrate_replicator(s0, -0.1)
        with pytest.raises(ScenarioError):
            integrate_replicator(s0, 0.5, dt=0.0)
        wards = (Ward(0, 2.0, 1.0), Ward(1, 3.0, 1.0))
        with pytest.raises(ScenarioError):
            integrate_replicator(Scenario(wards, LinearBenefit(0.3)), 0.5)

    @pytest.mark.parametrize(
        "dt, t_end",
        [(math.nan, 50.0), (math.inf, 50.0), (0.01, math.nan), (0.01, math.inf),
         (1e-300, 1.0), (1e-6, 1.01)],
    )
    def test_bad_or_unbounded_step_rejected(self, s0, dt, t_end):
        # ceil(t_end / dt) RK4 steps above MAX_RK4_STEPS are refused at once
        with pytest.raises(ScenarioError):
            integrate_replicator(s0, 0.5, t_end=t_end, dt=dt)

    def test_steps_at_the_cap_accepted(self, s0, monkeypatch):
        import wardgames.dynamics as dynamics

        monkeypatch.setattr(dynamics, "MAX_RK4_STEPS", 100)
        result = integrate_replicator(s0, 0.5, t_end=1.0, dt=0.01)
        assert len(result.trajectory) == 101
        with pytest.raises(ScenarioError):
            integrate_replicator(s0, 0.5, t_end=1.0, dt=0.0099)

    def test_tables_built_once(self, v0, monkeypatch):
        import wardgames.dynamics as dynamics

        calls = []

        def counting(scenario):
            calls.append(scenario)
            return payoff_tables(scenario)

        monkeypatch.setattr(dynamics, "payoff_tables", counting)
        integrate_replicator(v0, 0.5)
        assert len(calls) == 1

    def test_huge_dt_raises_numerical_error(self):
        # a violently scaled veto game makes RK4 overshoot [0, 1] at dt = 10
        s = symmetric_scenario(4, 2.0, 1.0, ThresholdBenefit(tau=4, beta=4000.0))
        with pytest.raises(NumericalError):
            integrate_replicator(s, 0.9, t_end=50.0, dt=10.0)
