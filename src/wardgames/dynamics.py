"""Adaptive processes over the game.

Sequential best-response dynamics on profiles, and two-strategy replicator
dynamics dx/dt = x(1-x)(u_E(x) - u_B(x)) on the share x of exposing
strategists, with opponents drawn binomially from the population.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterator

from .errors import NumericalError, ScenarioError
from .interventions import payoff_tables
from .model import Action, ActionProfile, Scenario, _check_profile, check_epsilon

SCHEDULES = ("round_robin", "random")
TIE_BREAKS = ("stay", "expose", "buffer")

# ceil(t_end / dt) above this is refused: the trajectory is kept in memory.
MAX_RK4_STEPS = 10**6

# The phase portrait subdivides the N Bernstein coefficients of the gain in
# O(N^2) per split; past about a thousand wards that takes seconds.
MAX_REPLICATOR_WARDS = 1030

# Ward 0's payoffs for exposing and for buffering, per count of exposing others.
Rows = tuple[list[float], list[float]]
# A function of the population share x.
Gain = Callable[[float], float]


class TraceTerminal(Enum):
    CONVERGED_TO_NASH = "ConvergedToNash"
    CYCLE_DETECTED = "CycleDetected"
    MAX_ITERS_REACHED = "MaxItersReached"


@dataclass(frozen=True)
class DynamicsTrace:
    """The starting profile, each move as (ward, payoff delta), and how the
    run ended: O(moves) memory, whatever N is."""

    initial: ActionProfile
    moves: tuple[tuple[int, float], ...]
    terminal: TraceTerminal

    @property
    def iterations(self) -> int:
        return len(self.moves)

    def masks(self) -> Iterator[int]:
        """The exposer mask before the first move and after each move."""
        mask = self.initial.mask
        yield mask
        for ward, _ in self.moves:
            mask ^= 1 << ward
            yield mask


class Stability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class FixedPoint:
    x: float
    stability: Stability


@dataclass(frozen=True)
class Basin:
    """Interval of initial shares flowing to `attractor`: a Stable point, or
    a semi-stable Boundary point (a tangent root) approached from one side."""

    lo: float
    hi: float
    attractor: float


@dataclass(frozen=True)
class ReplicatorResult:
    trajectory: tuple[tuple[float, float], ...]
    fixed_points: tuple[FixedPoint, ...]
    basins: tuple[Basin, ...]


def best_response_dynamics(
    scenario: Scenario,
    initial: ActionProfile,
    schedule: str = "round_robin",
    max_iters: int = 10_000,
    tie_break: str = "stay",
    seed: int | None = None,
    epsilon: float = 0.0,
) -> DynamicsTrace:
    """Let scheduled wards switch to strict best responses until stable.

    A scheduled ward moves when the other action strictly improves its
    payoff; under tie_break "expose"/"buffer" a ward indifferent between
    actions also moves once to its preferred action (recorded with the actual
    near-zero delta). Stops at Nash, on a repeated state under the
    round-robin schedule, or after max_iters moves.
    """
    if schedule not in SCHEDULES:
        raise ScenarioError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    if tie_break not in TIE_BREAKS:
        raise ScenarioError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
    n = scenario.n
    if len(initial) != n:
        raise ScenarioError(
            f"initial profile length {len(initial)} does not match {n} wards", ("initial",))
    if max_iters < 1:
        raise ScenarioError(f"max_iters must be >= 1, got {max_iters}", ("max_iters",))
    check_epsilon(epsilon)
    if schedule == "random" and seed is None:
        raise ScenarioError("the random schedule requires an explicit seed")
    tables = payoff_tables(scenario)
    rng = random.Random(seed) if schedule == "random" else None
    preferred = {"stay": None, "expose": 1, "buffer": 0}[tie_break]

    def decide(ward: int) -> float | None:
        """Payoff change if the ward switches now, else None."""
        exposing = mask >> ward & 1
        gain = tables.gain_to_expose(ward, count - exposing)
        if exposing:
            gain = -gain
        if gain > epsilon or (abs(gain) <= epsilon and preferred not in (None, exposing)):
            return gain
        return None

    # carried along, so decide is O(1) and a move is one bit flip
    mask, count = initial.mask, initial.exposer_count
    moves: list[tuple[int, float]] = []
    pointer = 0
    seen = {(mask, pointer)}
    terminal = TraceTerminal.CONVERGED_TO_NASH
    # a turn without a move changes nothing, so stability is checked after moves
    # only, from the next scheduled ward (where round robin finds its mover)
    while not all(decide(i) is None for i in chain(range(pointer, n), range(pointer))):
        if len(moves) >= max_iters:
            terminal = TraceTerminal.MAX_ITERS_REACHED
            break
        gain = None
        while gain is None:
            if rng is not None:
                ward = rng.randrange(n)
            else:
                ward, pointer = pointer, (pointer + 1) % n
            gain = decide(ward)
        mask ^= 1 << ward
        count += 1 if mask >> ward & 1 else -1
        moves.append((ward, gain))
        if rng is None:
            if (mask, pointer) in seen:
                terminal = TraceTerminal.CYCLE_DETECTED
                break
            seen.add((mask, pointer))
    return DynamicsTrace(initial, tuple(moves), terminal)


def exact_potential(scenario: Scenario, profile: ActionProfile) -> float:
    """Scalar whose change equals every unilateral deviator's payoff change.

    Phi(profile) = sum_{j<k} (B(j+1) - B(j) + pen(j)) - sum_{i exposing}
    (c_i(E) - c_i(B)) over effective costs, where pen(j) is the expected
    buffering penalty against j exposers. Valid for every scenario here
    because payoffs are count-based with ward-separable costs; sequential
    best-response moves therefore cannot cycle.
    """
    _check_profile(scenario, profile)
    tables = payoff_tables(scenario)
    benefit, penalty = tables.benefit, tables.penalty
    phi = math.fsum(
        benefit[j + 1] - benefit[j] + penalty[j] for j in range(profile.exposer_count)
    )
    ce, cb = tables.cost_expose, tables.cost_buffer
    phi -= math.fsum(
        ce[i] - cb[i] for i, a in enumerate(profile.actions) if a is Action.EXPOSE
    )
    return phi


def expected_payoffs_by_strategy(scenario: Scenario, x: float) -> tuple[float, float]:
    """Population-level (u_E, u_B) when each opponent exposes w.p. x.

    Opponent exposer counts are Binomial(N-1, x); payoffs are the effective
    (post-intervention) ones. Requires one class of bit-identical effective
    costs and at most MAX_REPLICATOR_WARDS wards (the portrait's limit).
    """
    expose, buffer = _replicator_tables(scenario)
    if not 0.0 <= x <= 1.0:
        raise ScenarioError(f"population share x must lie in [0, 1], got {x}")
    return _binomial_mean(expose)(x), _binomial_mean(buffer)(x)


def _replicator_tables(scenario: Scenario) -> Rows:
    """Ward 0's expose and buffer payoffs per count of exposing others, for one
    class of wards (charges may differ) and N up to MAX_REPLICATOR_WARDS."""
    tables = payoff_tables(scenario)
    if len(tables.classes) != 1:
        raise ScenarioError(
            "replicator dynamics need every ward's effective cost_expose and "
            "cost_buffer to be bit-identical (0.0 and -0.0 differ); use "
            "best_response_dynamics for other scenarios"
        )
    n = scenario.n
    if n > MAX_REPLICATOR_WARDS:
        raise ScenarioError(
            f"replicator dynamics support at most {MAX_REPLICATOR_WARDS} wards, "
            f"got {n}: the phase portrait's subdivision costs O(N^2) per split"
        )
    return [tables.expose(0, j) for j in range(n)], [tables.buffer(0, j) for j in range(n)]


def _binomial_mean(c: list[float]) -> Gain:
    """x -> sum_j c[j] C(m, j) x^j (1 - x)^(m - j), m = len(c) - 1.

    As in Loader (2000), the weight at the mode j0 = floor((m + 1) x) comes
    from logarithms and the others from the ratios (m - j) / (j + 1) *
    x / (1 - x), walking up and down from j0 until a weight underflows to
    exactly 0. No weight exceeds 1, so nothing overflows at any m. There is
    no relative cutoff: the portrait reads an exact 0 as a root. The walk
    reads prebuilt (ratio, coefficient) pairs from j0, in the same order.
    x <= 0 (or NaN) and x >= 1 give c[0] and c[m].
    """
    m = len(c) - 1
    log_comb, k = [], 1
    for j in range(m + 1):  # from the exact integers: lgamma differences cancel
        log_comb.append(math.log(k))
        k = k * (m - j) // (j + 1)
    up = [(m - j) / (j + 1) for j in range(m)]  # w[j + 1] / w[j] is up[j] * r
    rise, fall = list(zip(up, c[1:])), list(zip(up, c))[::-1]  # from j0: [j0:], [m - j0:]
    exp, log, log1p = math.exp, math.log, math.log1p

    def mean(x: float) -> float:
        if not x > 0.0:  # also NaN, which an overflowing RK4 stage can pass
            return c[0]
        if x >= 1.0:
            return c[m]
        j0 = int((m + 1) * x)  # at most m: (m + 1) * (1 - 2**-53) rounds below m + 1
        w0 = exp(log_comb[j0] + j0 * log(x) + (m - j0) * log1p(-x))
        total, w, r = w0 * c[j0], w0, x / (1.0 - x)
        for u, cj in rise[j0:]:
            w *= u * r
            if not w:
                break
            total += w * cj
        w = w0
        for u, cj in fall[m - j0:]:
            w /= u * r
            if not w:
                break
            total += w * cj
        return total

    return mean


def _split(c: list[float]) -> tuple[list[float], list[float]]:
    """de Casteljau at t = 1/2: the Bernstein coefficients of both halves."""
    left, right = [c[0]], [c[-1]]
    while len(c) > 1:
        c = [0.5 * (u + v) for u, v in zip(c, c[1:])]
        left.append(c[0])
        right.append(c[-1])
    return left, right[::-1]


def _phase_portrait(g: list[float], gain: Gain) -> tuple[list[FixedPoint], list[Basin]]:
    """Fixed points, stability and basins from the Bernstein form of the gain,
    u_E(x) - u_B(x) = sum_j g_j C(m, j) x^j (1 - x)^(m - j) with m = N - 1 and
    g_j the gain to expose against j exposing others.

    de Casteljau subdivision at midpoints isolates the roots in (0, 1). By
    Descartes' rule, coefficients with no sign change mean no root, and one
    change one simple root, bisected on the gain itself to adjacent floats.
    An exact zero at a midpoint is a fixed point; where no float is left to
    split at, the unresolved roots are one point. So a tangent root at a
    dyadic point is one Boundary point; elsewhere rounding decides: the gain
    (x - 1/3)^2 from rounded g_j gives one Boundary point an ulp from 1/3,
    but another tangent root may split into a Stable and an Unstable point
    or vanish. Stability and basins use only the signs the isolation saw.
    With every g_j zero nothing moves: 0 and 1 are Boundary, with no basins.
    """
    top = max(map(abs, g))
    if top == 0.0:
        return [FixedPoint(0.0, Stability.BOUNDARY), FixedPoint(1.0, Stability.BOUNDARY)], []
    g = [math.ldexp(v, -math.frexp(top)[1]) for v in g]  # exact: no average overflows
    points, ups = [0.0], [next(v > 0.0 for v in g if v)]  # gain > 0 right of each point
    stack = [(0.0, 1.0, g)]
    while stack:  # depth first, left half first: roots come out in order
        a, b, c = stack.pop()
        signs = [v > 0.0 for v in c if v]
        changes = sum(s != t for s, t in zip(signs, signs[1:]))
        mid = 0.5 * (a + b)
        if changes > 1 and a < mid < b:
            left, right = _split(c)
            stack += [(mid, b, right), (a, mid, left)]
            continue
        if signs and c[0] == 0.0 and a > 0.0:
            points.append(a)
            ups.append(signs[0])
        while changes == 1 and a < mid < b and (v := gain(mid)):
            a, b = (mid, b) if (v > 0.0) == signs[0] else (a, mid)
            mid = 0.5 * (a + b)
        if changes:
            points.append(mid)
            ups.append(signs[-1])
    points.append(1.0)
    # 0 and 1 have one side each; mirroring it makes them read like interior points
    sides = [not ups[0], *ups, not ups[-1]]
    stability = {(True, False): Stability.STABLE, (False, True): Stability.UNSTABLE}
    fixed = [
        FixedPoint(x, stability.get(pair, Stability.BOUNDARY))
        for x, pair in zip(points, zip(sides, sides[1:]))
    ]
    basins: list[Basin] = []
    for lo, hi, up in zip(points, points[1:], ups):
        attractor = hi if up else lo
        if basins and basins[-1].attractor == attractor:
            basins[-1] = Basin(basins[-1].lo, hi, attractor)
        else:
            basins.append(Basin(lo, hi, attractor))
    return fixed, basins


def integrate_replicator(
    scenario: Scenario,
    x0: float,
    t_end: float = 50.0,
    dt: float = 0.01,
) -> ReplicatorResult:
    """Fixed-step RK4 trajectory of the replicator equation plus its phase
    portrait (fixed points, stability, basins of attraction).

    x = 0 and x = 1 are always fixed points. A trajectory drifting outside
    [0, 1] by more than 1e-9 raises NumericalError (dt too large); smaller
    excursions are clamped. dt and t_end must be finite, t_end / dt at most
    MAX_RK4_STEPS, and N at most MAX_REPLICATOR_WARDS (the portrait's limit).
    The payoff tables and the O(N) gain are built once. The flow is
    autonomous: once a step of size h leaves x unchanged, the steps after it
    append rows without evaluating the gain until h changes (the last step).
    """
    if not 0.0 <= x0 <= 1.0:
        raise ScenarioError(f"x0 must lie in [0, 1], got {x0}", ("x0",))
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ScenarioError(f"t_end must be a finite number >= 0, got {t_end}", ("t_end",))
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ScenarioError(f"dt must be a finite number > 0, got {dt}", ("dt",))
    if t_end / dt > MAX_RK4_STEPS:
        raise ScenarioError(f"t_end={t_end} with dt={dt} needs more than {MAX_RK4_STEPS} "
                            "RK4 steps", ("t_end", "dt"))
    g = [e - b for e, b in zip(*_replicator_tables(scenario))]
    gain = _binomial_mean(g)  # c[0] / c[m] outside [0, 1]: no clamp needed

    traj = [(0.0, x0)]
    x, t, last = x0, 0.0, None
    while t < t_end - 1e-12:
        h = t_end - t if t_end - t < dt else dt
        if (x, h) != last:  # else an evaluated step began at this x and h and kept x
            last = (x, h)
            k1 = x * (1.0 - x) * gain(x)
            y = x + 0.5 * h * k1
            k2 = y * (1.0 - y) * gain(y)
            y = x + 0.5 * h * k2
            k3 = y * (1.0 - y) * gain(y)
            y = x + h * k3
            k4 = y * (1.0 - y) * gain(y)
            x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if not 0.0 < x < 1.0:
                if not -1e-9 <= x <= 1.0 + 1e-9:  # NaN too
                    raise NumericalError(f"trajectory left [0, 1] at t={t + h} (x={x}); reduce dt")
                x = 0.0 if x < 0.5 else 1.0
        t = t + h
        traj.append((t, x))
    fixed, basins = _phase_portrait(g, gain)
    return ReplicatorResult(
        trajectory=tuple(traj),
        fixed_points=tuple(fixed),
        basins=tuple(basins),
    )
