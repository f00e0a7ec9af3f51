"""Best-response dynamics, the potential argument, replicator dynamics."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from wardgames import (
    Action,
    ActionProfile,
    LinearBenefit,
    Mechanism,
    NumericalError,
    Scenario,
    ScenarioError,
    Stability,
    TableBenefit,
    ThresholdBenefit,
    TraceTerminal,
    Ward,
    best_response_dynamics,
    effective_payoff,
    exact_potential,
    expected_payoffs_by_strategy,
    integrate_replicator,
    is_nash,
    payoff_tables,
    symmetric_scenario,
)
from wardgames import dynamics
from wardgames.cli import load_scenario, main
from wardgames.dynamics import _binomial_mean
from wardgames.model import profile_string
from conftest import interchangeable_edge_scenarios, random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
X_STAR = (1.0 / 3.0) ** (1.0 / 3.0)


def gains_scenario(gains, cost=1.0):
    """Identical wards with costs (cost, 0) and B(j + 1) - B(j) = cost + gains[j],
    so the gain to expose against j exposing others is gains[j] up to rounding."""
    values = list(itertools.accumulate([0.0] + [cost + g for g in gains]))
    return symmetric_scenario(len(gains), cost, 0.0, TableBenefit(tuple(values)))


def portrait(result):
    return [(fp.x, fp.stability) for fp in result.fixed_points]


def oracle_gain(scenario, x):
    u_e, u_b = expected_payoffs_by_strategy(scenario, x)
    return u_e - u_b


def count_gains(scenario):
    """Ward 0's gain to expose against j exposing others, from effective_payoff."""
    m = scenario.n - 1
    gains = []
    for j in range(m + 1):
        others = "E" * j + "B" * (m - j)
        e = effective_payoff(scenario, ActionProfile.from_string("E" + others), 0)
        b = effective_payoff(scenario, ActionProfile.from_string("B" + others), 0)
        gains.append(e - b)
    return gains


def scan_signs(gains, xs):
    """Sign of sum_j g_j C(m, j) x^j (1 - x)^(m - j) at each x in (0, 1), by
    Horner's rule in t = x / (1 - x) after dividing out (1 - x)^m."""
    m = len(gains) - 1
    coeffs = [g * math.comb(m, j) for j, g in enumerate(gains)][::-1]
    out = []
    for x in xs:
        t = x / (1.0 - x)
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        out.append((acc > 0.0) - (acc < 0.0))
    return out


def check_against_oracle(scenario, result):
    """The portrait of `result` against expected_payoffs_by_strategy: a sign
    change within 1e-9 of every Stable or Unstable interior point, no sign
    change on a 4096-point scan between reported points, and stabilities and
    basins that agree with the oracle's sign between them."""
    points = [fp.x for fp in result.fixed_points]
    assert points[0] == 0.0 and points[-1] == 1.0
    assert points == sorted(points)
    for fp in result.fixed_points[1:-1]:
        lo = oracle_gain(scenario, max(0.0, fp.x - 1e-9))
        hi = oracle_gain(scenario, min(1.0, fp.x + 1e-9))
        if fp.stability is Stability.STABLE:
            assert lo >= 0.0 >= hi, (fp, lo, hi)
        elif fp.stability is Stability.UNSTABLE:
            assert lo <= 0.0 <= hi, (fp, lo, hi)
    grid = [i / 4096 for i in range(1, 4096)]
    signs = dict(zip(grid, scan_signs(count_gains(scenario), grid)))
    mids = []
    for lo, hi in zip(points, points[1:]):
        inside = {signs[x] for x in grid if lo + 1e-9 < x < hi - 1e-9}
        assert not {-1, 1} <= inside, (lo, hi)
        mid = oracle_gain(scenario, 0.5 * (lo + hi))
        mids.append((mid > 0.0) - (mid < 0.0))
    sides = [-mids[0], *mids, -mids[-1]]
    expected = {(1, -1): Stability.STABLE, (-1, 1): Stability.UNSTABLE}
    for fp, left, right in zip(result.fixed_points, sides, sides[1:]):
        assert fp.stability is expected.get((left, right), Stability.BOUNDARY), fp
    basins = []
    for lo, hi, sign in zip(points, points[1:], mids):
        attractor = hi if sign > 0 else lo
        if basins and basins[-1][2] == attractor:
            basins[-1] = (basins[-1][0], hi, attractor)
        else:
            basins.append((lo, hi, attractor))
    assert [(b.lo, b.hi, b.attractor) for b in result.basins] == basins


def reference_best_response(scenario, initial, schedule, max_iters, tie_break, seed, epsilon):
    """best_response_dynamics restated without carried state: every decision
    recounts the profile and compares the ward's two effective payoffs.
    Returns the steps as (profile, mover, repr(delta)) and the terminal."""
    n = scenario.n
    rng = random.Random(seed) if schedule == "random" else None
    preferred = {"stay": None, "expose": Action.EXPOSE, "buffer": Action.BUFFER}[tie_break]

    def decide(profile, ward):
        cur = profile.actions[ward]
        gain = effective_payoff(scenario, profile.with_action(ward, Action.EXPOSE), ward)
        gain -= effective_payoff(scenario, profile.with_action(ward, Action.BUFFER), ward)
        if cur is Action.EXPOSE:
            gain = -gain
        if gain > epsilon or (abs(gain) <= epsilon and preferred not in (None, cur)):
            return gain
        return None

    profile, pointer = initial, 0
    steps = [(str(profile), None, repr(0.0))]
    seen = {(str(profile), pointer)}
    while True:
        if all(decide(profile, i) is None for i in range(n)):
            return steps, TraceTerminal.CONVERGED_TO_NASH
        if len(steps) - 1 >= max_iters:
            return steps, TraceTerminal.MAX_ITERS_REACHED
        if rng is not None:
            ward = rng.randrange(n)
        else:
            ward, pointer = pointer, (pointer + 1) % n
        gain = decide(profile, ward)
        if gain is None:
            continue
        profile = profile.with_action(ward, profile.actions[ward].flipped())
        steps.append((str(profile), ward, repr(gain)))
        if rng is None:
            if (str(profile), pointer) in seen:
                return steps, TraceTerminal.CYCLE_DETECTED
            seen.add((str(profile), pointer))


def trace_steps(trace):
    """(profile string, mover, repr(delta)) per trace row, the initial one
    first with mover None and delta 0.0."""
    n = len(trace.initial)
    moves = [(None, 0.0), *trace.moves]
    return [(profile_string(m, n), w, repr(d)) for m, (w, d) in zip(trace.masks(), moves)]


def final_profile(trace):
    *_, mask = trace.masks()
    return ActionProfile.from_mask(mask, len(trace.initial))


def exact_binomial_mean(c, x):
    """sum_j c_j C(m, j) x^j (1 - x)^(m - j) and the same sum over |c_j|, as
    exact fractions. With x = p / q the weights are integers over q^m, each
    from the last by the exact ratio (m - j) p / ((j + 1) (q - p))."""
    m = len(c) - 1
    p, q = x.as_integer_ratio()
    den = max(v.as_integer_ratio()[1] for v in c)  # a power of two
    nums = [a * (den // b) for a, b in map(float.as_integer_ratio, c)]
    w = (q - p) ** m
    total = mag = 0
    for j, a in enumerate(nums):
        total += a * w
        mag += abs(a) * w
        if j < m:
            w = w * (m - j) * p // ((j + 1) * (q - p))  # exact: the result is an integer
    return Fraction(total, den * q**m), Fraction(mag, den * q**m)


def assert_mean_within_bound(c, x):
    """|error| <= 4 N 2^-52 sum_j |c_j| w_j + N 2^-1073 with N = len(c)."""
    exact, mag = exact_binomial_mean(c, x)
    n = len(c)
    err = abs(Fraction(_binomial_mean(c)(x)) - exact)
    assert err <= 4 * n * Fraction(1, 2**52) * mag + n * Fraction(1, 2**1073), (n, x)


def reference_binomial_mean(c, stops=None):
    """The index-based walk that the pair walk replaced, kept as a bit-for-bit
    oracle. Each early stop (a weight underflowing to 0) is appended to `stops`."""
    m = len(c) - 1
    log_comb, k = [], 1
    for j in range(m + 1):
        log_comb.append(math.log(k))
        k = k * (m - j) // (j + 1)
    up = [(m - j) / (j + 1) for j in range(m)]

    def mean(x):
        if not x > 0.0:
            return c[0]
        if x >= 1.0:
            return c[m]
        j0 = min(m, int((m + 1) * x))
        w0 = math.exp(log_comb[j0] + j0 * math.log(x) + (m - j0) * math.log1p(-x))
        total, w, r = w0 * c[j0], w0, x / (1.0 - x)
        for j in range(j0, m):
            w *= up[j] * r
            if not w:
                if stops is not None:
                    stops.append((m, x))
                break
            total += w * c[j + 1]
        w = w0
        for j in range(j0 - 1, -1, -1):
            w /= up[j] * r
            if not w:
                if stops is not None:
                    stops.append((m, x))
                break
            total += w * c[j]
        return total

    return mean


def reference_replicator(scenario, x0, t_end=50.0, dt=0.01):
    """The RK4 loop that evaluates every step, through an `f` wrapper and a
    min/max clamp, on the reference walk: (trajectory, fixed points, basins)."""
    g = [e - b for e, b in zip(*dynamics._replicator_tables(scenario))]
    gain = reference_binomial_mean(g)

    def f(x):
        return x * (1.0 - x) * gain(x)

    traj = [(0.0, x0)]
    x = x0
    t = 0.0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not -1e-9 <= x <= 1.0 + 1e-9:
            raise NumericalError(f"trajectory left [0, 1] at t={t + h} (x={x}); reduce dt")
        x = min(1.0, max(0.0, x))
        t = t + h
        traj.append((t, x))
    fixed, basins = dynamics._phase_portrait(g, gain)
    return tuple(traj), tuple(fixed), tuple(basins)


def assert_same_run(scenario, x0, **kwargs):
    """integrate_replicator against reference_replicator, by repr."""
    result = integrate_replicator(scenario, x0, **kwargs)
    got = (result.trajectory, result.fixed_points, result.basins)
    assert repr(got) == repr(reference_replicator(scenario, x0, **kwargs)), x0
    return result


def counting_gains(monkeypatch):
    """Patch dynamics._binomial_mean so that every gain evaluation of the
    functions it builds appends to the returned list."""
    calls = []

    def build(c):
        mean = _binomial_mean(c)

        def counted(x):
            calls.append(x)
            return mean(x)

        return counted

    monkeypatch.setattr(dynamics, "_binomial_mean", build)
    return calls


def evaluated_steps(trajectory, t_end, dt):
    """RK4 steps that must be evaluated: a step is free when the step before
    it kept x under the same step size (the flow is autonomous)."""
    hs = [min(dt, t_end - t) for t, _ in trajectory[:-1]]
    xs = [x for _, x in trajectory]
    return sum(
        not (i and xs[i - 1] == xs[i] and hs[i - 1] == hs[i]) for i in range(len(hs))
    )


class TestBestResponseDynamics:
    def test_s0_unravels_to_all_buffer(self, s0):
        trace = best_response_dynamics(s0, ActionProfile.all_expose(4))
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert trace.iterations <= 4
        assert str(final_profile(trace)) == "BBBB"

    def test_already_nash_converges_in_zero_moves(self, s0):
        trace = best_response_dynamics(s0, ActionProfile.all_buffer(4))
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert trace.iterations == 0
        assert trace.moves == ()
        assert list(trace.masks()) == [0]

    def test_veto_near_miss_unravels(self, v0):
        trace = best_response_dynamics(
            v0, ActionProfile.from_string("EEEB"), tie_break="stay"
        )
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert str(final_profile(trace)) == "BBBB"

    def test_every_move_strictly_improves(self):
        rng = random.Random(67)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            for _, delta in trace.moves:
                assert delta > 0.0

    def test_converged_profile_is_nash(self):
        rng = random.Random(71)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
            assert is_nash(s, final_profile(trace)).is_nash

    def test_potential_strictly_increases(self):
        rng = random.Random(73)
        for _ in range(30):
            s = random_scenario(rng, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            trace = best_response_dynamics(s, initial)
            phis = [
                exact_potential(s, ActionProfile.from_mask(m, s.n)) for m in trace.masks()
            ]
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
            d_u = effective_payoff(s, q, i) - effective_payoff(s, p, i)
            d_phi = exact_potential(s, q) - exact_potential(s, p)
            assert d_phi == pytest.approx(d_u, abs=1e-9)

    def test_random_schedule_deterministic_given_seed(self, v0):
        initial = ActionProfile.from_string("EEBB")
        a = best_response_dynamics(v0, initial, schedule="random", seed=123)
        b = best_response_dynamics(v0, initial, schedule="random", seed=123)
        assert [st[:2] for st in trace_steps(a)] == [st[:2] for st in trace_steps(b)]

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
        assert str(final_profile(move)) == "EEE"
        assert all(delta == 0.0 for _, delta in move.moves)

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

    @pytest.mark.parametrize("schedule", ["round_robin", "random"])
    @pytest.mark.parametrize("tie_break", ["stay", "expose", "buffer"])
    def test_matches_the_recounting_reference(self, schedule, tie_break):
        rng = random.Random(f"{schedule}:{tie_break}")
        for _ in range(40):
            s = random_scenario(rng, max_n=10, symmetric=False, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            epsilon = rng.choice((0.0, rng.uniform(0.0, 0.5)))
            seed, max_iters = rng.randrange(1000), rng.randint(1, 40)
            trace = best_response_dynamics(
                s, initial, schedule, max_iters, tie_break, seed, epsilon
            )
            got = trace_steps(trace)
            assert (got, trace.terminal) == reference_best_response(
                s, initial, schedule, max_iters, tie_break, seed, epsilon
            )
            assert trace.iterations == len(got) - 1

    def test_1024_wards_take_linear_time_per_move(self):
        n = 1024
        s = symmetric_scenario(n, 2.0, 1.0, LinearBenefit(0.3), [Mechanism(0.1)])
        start = time.perf_counter()
        trace = best_response_dynamics(s, ActionProfile.all_buffer(n))
        assert time.perf_counter() - start < 5.0
        assert trace.terminal is TraceTerminal.CONVERGED_TO_NASH
        assert trace.iterations == n
        assert str(final_profile(trace)) == "E" * n

    def test_masks_replay_the_reference_profiles(self):
        rng = random.Random(83)
        for _ in range(60):
            s = random_scenario(rng, max_n=10, symmetric=False, with_interventions=True)
            initial = ActionProfile.from_mask(rng.randrange(1 << s.n), s.n)
            schedule = rng.choice(("round_robin", "random"))
            tie_break = rng.choice(("stay", "expose", "buffer"))
            args = (s, initial, schedule, rng.randint(1, 40), tie_break, rng.randrange(1000), 0.0)
            trace = best_response_dynamics(*args)
            profiles = [str(ActionProfile.from_mask(m, s.n)) for m in trace.masks()]
            assert profiles == [p for p, _, _ in reference_best_response(*args)[0]]

    def test_4096_wards_keep_moves_not_profiles(self):
        n = 4096
        s = symmetric_scenario(n, 2.0, 1.0, LinearBenefit(0.3), [Mechanism(0.1)])
        start = time.perf_counter()
        trace = best_response_dynamics(s, ActionProfile.all_buffer(n))
        assert time.perf_counter() - start < 2.0
        assert trace.iterations == n
        tracemalloc.start()
        try:
            best_response_dynamics(s, ActionProfile.all_buffer(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one profile per move, as N-tuples, would take over 100 MB here
        assert peak < 16 * 2**20

    def test_round_robin_detects_a_cycle(self, monkeypatch):
        import wardgames.dynamics as dynamics

        # matching pennies is no potential game: ward 0 wants to match ward
        # 1, ward 1 to differ, so round robin returns to a visited state
        class Pennies:
            def gain_to_expose(self, ward, k_others):
                return 1.0 if (k_others == 1) == (ward == 0) else -1.0

        monkeypatch.setattr(dynamics, "payoff_tables", lambda scenario: Pennies())
        s = symmetric_scenario(2, 2.0, 1.0, LinearBenefit(0.3))
        trace = best_response_dynamics(s, ActionProfile.all_buffer(2))
        assert trace.terminal is TraceTerminal.CYCLE_DETECTED
        assert trace_steps(trace) == [
            ("BB", None, "0.0"), ("BE", 1, "1.0"), ("EE", 0, "1.0"),
            ("EB", 1, "1.0"), ("BB", 0, "1.0"), ("BE", 1, "1.0"),
        ]
        trace = best_response_dynamics(
            s, ActionProfile.all_buffer(2), schedule="random", seed=1, max_iters=7
        )
        assert trace.terminal is TraceTerminal.MAX_ITERS_REACHED
        assert trace.iterations == 7


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


class TestBinomialMean:
    """The replicator gain against exact rational arithmetic."""

    COEFFICIENTS = ("uniform", "dyadic", "spike", "subnormal")
    SHARES = ("uniform", "tiny", "near_one", "power_of_two", "half")

    @pytest.mark.parametrize("kind", COEFFICIENTS)
    def test_within_the_error_bound(self, kind):
        rng = random.Random(kind)
        for share in self.SHARES * 60:
            n = rng.randint(2, 64)
            if kind == "uniform":
                c = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            elif kind == "dyadic":
                c = [rng.choice((-1.0, 1.0)) * 2.0 ** rng.randint(-60, 60) for _ in range(n)]
            elif kind == "spike":
                c = [0.0] * n
                c[rng.randrange(n)] = rng.uniform(-2.0, 2.0)
            else:
                c = [rng.uniform(-1.0, 1.0) * 1e-310 for _ in range(n)]
            x = {
                "uniform": rng.uniform(1e-9, 1.0 - 1e-9),
                "tiny": rng.uniform(0.0, 1e-12) or 1e-13,
                "near_one": 1.0 - rng.uniform(0.0, 1e-9) or 0.5,
                "power_of_two": 2.0 ** -rng.randint(1, 1000),
                "half": 0.5,
            }[share]
            assert_mean_within_bound(c, x)

    def test_past_the_old_float_overflow(self):
        rng = random.Random(2048)
        c = [rng.uniform(-1.0, 1.0) for _ in range(2048)]  # C(2047, 1023) > 1e307
        for x in (0.3, 0.5, 0.999):
            assert_mean_within_bound(c, x)

    @pytest.mark.parametrize("n", [2, 16, 2048])
    def test_tiny_share_keeps_a_tiny_mean(self, n):
        # a cutoff relative to the mode's weight would return 0, a fixed point
        c = [0.0] * n
        c[1] = 1.0
        assert _binomial_mean(c)(1e-20) == pytest.approx((n - 1) * 1e-20, rel=1e-12, abs=0)

    def test_ends_of_the_interval(self):
        mean = _binomial_mean([3.0, -1.0, 5.0])
        assert (mean(0.0), mean(-1e-12), mean(1.0), mean(1.0 + 1e-12)) == (3.0, 3.0, 5.0, 5.0)

    def test_pair_walk_matches_the_index_walk_bit_for_bit(self):
        rng = random.Random(2000)
        edges = (0.0, -0.0, 1.0, math.nan, 5e-324, 1e-300, 1.0 - 2.0**-53)
        stops = []
        for m in [*range(1, 41), 200, 1029]:
            scale = 2.0 ** rng.randint(-60, 60)
            c = [rng.uniform(-scale, scale) for _ in range(m + 1)]
            mean, reference = _binomial_mean(c), reference_binomial_mean(c, stops)
            # shares near the ends make the far weights underflow to exactly 0
            shares = [rng.random() for _ in range(8)] + [rng.uniform(0.0, 1e-3),
                                                         1.0 - rng.uniform(0.0, 1e-3)]
            for x in (*edges, *shares):
                assert repr(mean(x)) == repr(reference(x)), (m, x)
        assert stops  # some walks ended early on an exact 0


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

    def test_veto_at_256_wards_is_fast(self):
        s = symmetric_scenario(256, 2.0, 1.0, ThresholdBenefit(tau=256, beta=3.0))
        start = time.perf_counter()
        result = integrate_replicator(s, 0.5)
        assert time.perf_counter() - start < 1.5
        assert result.trajectory[-1][1] < 1e-3

    def test_huge_dt_raises_numerical_error(self):
        # a violently scaled veto game makes RK4 overshoot [0, 1] at dt = 10
        s = symmetric_scenario(4, 2.0, 1.0, ThresholdBenefit(tau=4, beta=4000.0))
        with pytest.raises(NumericalError):
            integrate_replicator(s, 0.9, t_end=50.0, dt=10.0)

    @pytest.mark.parametrize("gains", [[1.0, 0.0], [-1.0, 0.0]])
    def test_overflowing_step_raises_numerical_error(self, gains):
        # the RK4 stages overflow to inf and then NaN; NaN is not a share
        with pytest.raises(NumericalError, match="reduce dt"):
            integrate_replicator(gains_scenario(gains), 0.5, t_end=1e300, dt=1e300)


# SHA-256 of the CSV plus stderr of `dynamics --replicator --initial X` on the
# shipped scenarios, as written by the RK4 loop that evaluated every step.
REPLICATOR_CLI_SHA256 = {
    ("s0_baseline", "0.05"): "1bbd9c55f88a39ba789a48f6e51f0c7a191514bce704052b52971d7ecf37a810",
    ("s0_baseline", "0.5"): "5a3f8dcb8fbe12780c612f0d09b7965cfa37116ba2de6a29b926611f5f067af1",
    ("s0_baseline", "0.95"): "2d09b1f58e087957d97fd78d8528c59a43edf2c29241a312ca90ac792e52b11e",
    ("s0_effort", "0.05"): "b21476091c922e0344da0078b55cf7f573d700d935778c359e45c24cfd11c6a9",
    ("s0_effort", "0.5"): "5e6a348235f5e8a0ab05f672e11a98a8c973310f0d952bf2970ab75191fefa17",
    ("s0_effort", "0.95"): "ba114c126e82d41c221cce8bc944b991db9bae256947a09d2dd5c57dcd7bf136",
    ("s0_mechanism", "0.05"): "20882ac5742dd137905b13aed01ffc7b8b638bb22ee7c566e4b792a9b02c1ccd",
    ("s0_mechanism", "0.5"): "6ea5c725bc6aa9e4d517390187f5f49c8d3d26859915aacf43a6bca099514088",
    ("s0_mechanism", "0.95"): "1a2558335b03e185a371d69980934483c6e30558763a753d534229f0694c92c8",
    ("s0_observability", "0.05"): "d87db587106f1ff506c4b2779fa59c437f4eae685d10a9341a23d9d353afef9c",
    ("s0_observability", "0.5"): "d2eceb24f268a55b35c6b2454e791abddfe5337bee61d96d5b038fe4c37b51c2",
    ("s0_observability", "0.95"): "8051e84496be5c59aba5be53fb05eb85eb027adf11555b06ab72bebacc474d58",
    ("v0_veto", "0.05"): "168a77be007c8ee49a5c9a4d13f29ed661529b08937b51db5738aeb9ada18e4e",
    ("v0_veto", "0.5"): "710ba1113e53e9be80f01c74f5391e90ea25be5dc6135b7f1c928dca21d8f315",
    ("v0_veto", "0.95"): "9f73382821e1fb3b6d61b5f089ece63e62c60ebe0ed8430301eb123c1086f771",
}


class TestReplicatorBitIdentity:
    """integrate_replicator against the loop that evaluates every step, by repr,
    and the gain evaluations that skipping stationary steps saves."""

    def test_random_scenarios_match_the_reference(self, monkeypatch):
        rng = random.Random(4021)
        calls = counting_gains(monkeypatch)
        interior = 0
        for _ in range(24):
            s = random_scenario(rng, max_n=40, symmetric=True, with_interventions=True)
            calls.clear()
            fixed = integrate_replicator(s, 0.5, t_end=0.0).fixed_points
            portrait_calls = len(calls)
            interior += len(fixed) - 2
            for x0 in (0.0, -0.0, 1.0, rng.random(), *[fp.x for fp in fixed[1:-1]]):
                calls.clear()
                # 20 steps of 0.05, then one of 0.013
                result = assert_same_run(s, x0, t_end=1.013, dt=0.05)
                steps = evaluated_steps(result.trajectory, 1.013, 0.05)
                assert len(calls) <= 4 * steps + portrait_calls
        assert interior  # some runs start at an interior fixed point

    def test_all_zero_gains_cost_two_steps(self, monkeypatch):
        s = load_scenario(SCENARIOS / "s0_observability.json")
        assert set(count_gains(s)) == {0.0}
        calls = counting_gains(monkeypatch)
        result = assert_same_run(s, 0.5)
        assert len(result.trajectory) == 5002
        # the first step and the short last one; the portrait needs no gain here
        assert len(calls) == 8

    def test_a_run_that_stops_changing_below_one(self, monkeypatch):
        s = gains_scenario([4.0, 4.0])
        calls = counting_gains(monkeypatch)
        integrate_replicator(s, 0.5, t_end=0.0)
        portrait_calls = len(calls)
        calls.clear()
        result = assert_same_run(s, 0.5)
        traj = result.trajectory
        still = next(i for i in range(len(traj) - 1) if traj[i][1] == traj[i + 1][1])
        assert still < 1000 and 0.0 < 1.0 - traj[-1][1] < 1e-14
        # 5000 steps of 0.01 stop short of 50, so a last step of ~1.4e-12 follows
        assert traj[-2][0] == 49.99999999999862 and traj[-1][0] == 50.0
        steps = evaluated_steps(traj, 50.0, 0.01)
        assert steps == still + 2
        assert len(calls) <= 4 * steps + portrait_calls

    def test_the_short_last_step_is_evaluated(self, monkeypatch):
        # z^3 + 4 z^2 + 12 z + 24 = 0 at z = -2.78529...: there RK4's step factor
        # for x' = -lambda (x - x*) is exactly 1, so with lambda dt on it a full step
        # leaves x in place, while the shorter last step moves x towards x* = 1/2
        z, dt = 2.785293563405282, 0.01
        s = gains_scenario([2.0 * z / dt, -2.0 * z / dt], cost=0.0)  # lambda = g_0 / 2
        calls = counting_gains(monkeypatch)
        integrate_replicator(s, 0.5, t_end=0.0)
        portrait_calls = len(calls)
        calls.clear()
        result = assert_same_run(s, 0.500000010899738, t_end=0.105, dt=dt)
        xs = [x for _, x in result.trajectory]
        assert len(set(xs[:-1])) == 1 and abs(xs[-1] - 0.5) < abs(xs[0] - 0.5)
        # so the key of a stationary step holds h as well as x
        assert len(calls) == 8 + portrait_calls

    @pytest.mark.parametrize("gain, x0, end", [(1.0, 0.1, 1.0), (-1.0, 0.9, 0.0)])
    def test_a_step_just_past_an_end_is_clamped(self, gain, x0, end):
        # a step of this size (found by bisection) lands 5.6e-10 outside [0, 1]
        h = 6.210792652054698
        result = assert_same_run(gains_scenario([gain, gain]), x0, t_end=3 * h, dt=h)
        assert [x for _, x in result.trajectory] == [x0, end, end, end]

    @pytest.mark.parametrize("name, initial", sorted(REPLICATOR_CLI_SHA256))
    def test_cli_output_is_pinned(self, name, initial, tmp_path, capsys):
        out = tmp_path / "t.csv"
        argv = ["dynamics", str(SCENARIOS / f"{name}.json"), "--replicator",
                "--initial", initial, "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        digest = hashlib.sha256(out.read_bytes() + captured.err.encode()).hexdigest()
        assert digest == REPLICATOR_CLI_SHA256[name, initial]


class TestPhasePortrait:
    def test_two_roots_in_one_old_grid_cell(self):
        # gains of (x - a)(x - b) in Bernstein form, plus a constant 1 in B
        a, b = 0.5001, 0.5003
        g = [a * b, -(a + b) / 2 + a * b, (1 - a) * (1 - b)]
        result = integrate_replicator(gains_scenario(g), 0.5002)
        expected = [(0.0, Stability.UNSTABLE), (a, Stability.STABLE),
                    (b, Stability.UNSTABLE), (1.0, Stability.STABLE)]
        assert len(result.fixed_points) == 4
        for (x, stab), (want_x, want_stab) in zip(portrait(result), expected):
            assert x == pytest.approx(want_x, abs=1e-9) and stab is want_stab
        (lo1, hi1, at1), (lo2, hi2, at2) = [(q.lo, q.hi, q.attractor) for q in result.basins]
        assert (lo1, hi2, at2) == (0.0, 1.0, 1.0)
        assert hi1 == lo2 == pytest.approx(b, abs=1e-9)
        assert at1 == pytest.approx(a, abs=1e-9)
        # the gain is ~1e-8 here, so the trajectory only starts down towards a
        assert a < result.trajectory[-1][1] < 0.5002

    def test_all_zero_gains_are_stationary(self):
        s = symmetric_scenario(4, 2.0, 1.0, LinearBenefit(1.0))
        result = integrate_replicator(s, 0.3)
        assert portrait(result) == [(0.0, Stability.BOUNDARY), (1.0, Stability.BOUNDARY)]
        assert result.basins == ()
        assert all(x == 0.3 for _, x in result.trajectory)

    def test_tangent_root_at_a_dyadic_point(self):
        result = integrate_replicator(gains_scenario([1.0, -1.0, 1.0]), 0.2)
        assert portrait(result) == [
            (0.0, Stability.UNSTABLE), (0.5, Stability.BOUNDARY), (1.0, Stability.STABLE)
        ]
        assert [(b.lo, b.hi, b.attractor) for b in result.basins] == [
            (0.0, 0.5, 0.5), (0.5, 1.0, 1.0)
        ]

    def test_tangent_root_off_the_dyadic_grid(self):
        # the gain is (x - 1/3)^2 up to rounding; it is reported as one point
        a = 1.0 / 3.0
        result = integrate_replicator(
            gains_scenario([a * a, -a * (1 - a), (1 - a) ** 2]), 0.2, t_end=0.0
        )
        interior = portrait(result)[1:-1]
        assert len(interior) == 1
        assert interior[0][0] == pytest.approx(a, abs=1e-8)
        assert interior[0][1] is Stability.BOUNDARY

    def test_random_scenarios_against_the_oracle(self):
        rng = random.Random(89)
        interior = 0
        for _ in range(200):
            s = random_scenario(rng, max_n=16, symmetric=True, with_interventions=True)
            result = integrate_replicator(s, 0.5, t_end=0.0)
            check_against_oracle(s, result)
            interior += len(result.fixed_points) - 2
        assert interior > 20  # the draw does reach interior fixed points

    @pytest.mark.parametrize("kind", ["alternating", "noise"])
    def test_adversarial_gains_finish_fast(self, kind):
        rng = random.Random(97)
        if kind == "alternating":
            gains = [(-1.0) ** j for j in range(64)]
        else:
            gains = [rng.choice((-1e-300, 1e-300)) for _ in range(64)]
        s = gains_scenario(gains, cost=0.0)
        start = time.perf_counter()
        result = integrate_replicator(s, 0.5, t_end=0.0)
        assert time.perf_counter() - start < 1.0
        if kind == "alternating":  # the gain is (1 - 2x)^63
            assert portrait(result) == [
                (0.0, Stability.UNSTABLE), (0.5, Stability.STABLE), (1.0, Stability.UNSTABLE)
            ]
        else:
            assert len(result.fixed_points) > 2
            check_against_oracle(s, result)


class TestReplicatorSizeLimit:
    def test_largest_supported_size_is_accepted(self):
        s = symmetric_scenario(1030, 2.0, 1.0, LinearBenefit(0.3))
        u_e, u_b = expected_payoffs_by_strategy(s, 0.5)
        assert u_e - u_b == pytest.approx(-0.7)

    def test_one_more_ward_is_refused_before_integrating(self):
        s = symmetric_scenario(1031, 2.0, 1.0, LinearBenefit(0.3))
        with pytest.raises(ScenarioError, match="at most 1030 wards"):
            expected_payoffs_by_strategy(s, 0.5)
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match="at most 1030 wards"):
            integrate_replicator(s, 0.5)
        assert time.perf_counter() - start < 1.0


class TestReplicatorOnOneClass:
    """The replicator needs one class of bit-identical effective costs."""

    def test_unequal_redistribute_charges_over_one_class_run(self):
        # effective costs are (1.1, 0.5) for every ward, the charges 2.4 down to 0.4
        capped = interchangeable_edge_scenarios()[3]
        twin = symmetric_scenario(5, 3.5, 0.5, capped.benefit, capped.interventions)
        assert integrate_replicator(capped, 0.3) == integrate_replicator(twin, 0.3)
        assert expected_payoffs_by_strategy(capped, 0.3) == expected_payoffs_by_strategy(
            twin, 0.3)

    def test_mixed_signed_zero_costs_are_refused(self):
        # 0.0 == -0.0, but under a benefit of -0.0 the wards' payoffs differ in sign
        mixed, negative, _, _ = interchangeable_edge_scenarios()
        for run in (integrate_replicator, expected_payoffs_by_strategy):
            with pytest.raises(ScenarioError, match="identical wards"):
                run(mixed, 0.5)
            run(negative, 0.5)
