"""Exact equilibrium analysis: Nash enumeration, best responses, flip checks.

Enumeration is exact over all 2^N pure profiles without visiting them: the
game is anonymous, so deviation incentives are checked once per ward and
exposer count, and the Nash set is built from those checks. Comparisons use a
configurable epsilon (default 0: exact float comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import combinations
from math import comb, fsum
from typing import NamedTuple, Sequence

from .errors import NumericalError, ResourceLimitError, ScenarioError
from .interventions import (
    PayoffTables,
    _bits,
    _cost_fields,
    _cost_rule,
    _payoff,
    _ward_costs,
    buffering_penalty,
    payoff_tables,
)
from .model import (Action, ActionProfile, Scenario, _check_profile, _check_ward,
                    benefit_at_count, check_epsilon, welfare)

# Materialising a Nash set of more than this many profiles is refused.
_MAX_NASH_PROFILES = 1 << 22

# Below this welfare bound every welfare sum and the gap between two are finite.
_MAX_WELFARE = 2.0 ** 1022


class Classification(Enum):
    DOMINANT_BUFFER = "DominantBuffer"
    DOMINANT_EXPOSE = "DominantExpose"
    BISTABLE = "Bistable"
    MIXED_OTHER = "Mixed/Other"


class NashCheck(NamedTuple):
    is_nash: bool
    violating_wards: frozenset[int]
    strict: bool


class NashBlock(NamedTuple):
    """The Nash profiles with k exposers: every k-set that holds all wards
    of the mask `forced` plus `seats` wards of the mask `free`. A profile m
    of the block is strict iff no ward of weak_expose exposes in m and every
    ward of weak_buffer does."""

    k: int
    forced: int
    free: int
    seats: int
    weak_expose: int
    weak_buffer: int


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything enumerate_nash knows about a scenario's pure equilibria.

    nash_plan describes the Nash set exactly without building it, one block
    per exposer count that has Nash profiles, and nash_count is the exact
    number of its profiles. nash_masks pairs each profile mask with its
    strictness flag, sorted by mask, and nash_profiles holds the same as
    ActionProfiles; each is built when it is first read, and that read
    raises ResourceLimitError for a set of more than 4M profiles.
    dominant_strategy holds a ward's strictly dominant action or None.
    welfare_gap is optimal welfare minus best-Nash welfare (None when no
    pure Nash exists).
    """

    n: int
    nash_count: int
    nash_plan: tuple[NashBlock, ...]
    dominant_strategy: tuple[Action | None, ...]
    welfare_optimum: tuple[ActionProfile, float]
    welfare_gap: float | None
    classification: Classification

    @cached_property
    def nash_masks(self) -> tuple[tuple[int, bool], ...]:
        return _nash_profiles(self.nash_plan, self.nash_count)

    @cached_property
    def nash_profiles(self) -> tuple[tuple[ActionProfile, bool], ...]:
        return tuple(
            (ActionProfile.from_mask(m, self.n), s) for m, s in self.nash_masks
        )


@dataclass(frozen=True)
class WardFlip:
    """Per-ward flip diagnostics, all margins oriented expose-minus-buffer
    and evaluated against everyone else buffering.

    baseline_margin uses the intervention-free game; effort_margin,
    observability_margin and mechanism_margin isolate the interventions of
    one archetype on top of the baseline. The 'holds' flags follow the
    archetype conditions: buffering stays a weak best response (baseline,
    effort, observability) or exposing becomes one (mechanism).
    """

    ward: int
    baseline_margin: float
    baseline_buffer_best: bool
    effort_margin: float
    effort_buffer_holds: bool
    observability_margin: float
    observability_buffer_holds: bool
    mechanism_margin: float
    mechanism_expose_holds: bool


@dataclass(frozen=True)
class FlipReport:
    """Flip conditions per ward plus the wards blocking full exposure.

    blocking_wards lists every ward with a strictly profitable deviation from
    the all-Expose profile of the fully effective game; it is empty iff
    all-Expose is a (weak) Nash profile.
    """

    wards: tuple[WardFlip, ...]
    blocking_wards: frozenset[int]


def best_response(
    scenario: Scenario,
    others: Sequence[Action],
    ward: int,
    epsilon: float = 0.0,
) -> set[Action]:
    """Argmax set over {Expose, Buffer} against a fixed profile of others.

    others must list the actions of all wards except `ward`, in ward order.
    Ties (payoffs within epsilon) return both actions.
    """
    check_epsilon(epsilon)
    _check_ward(scenario, ward)
    n = scenario.n
    if len(others) != n - 1:
        raise ScenarioError(
            f"profile-of-others must have {n - 1} actions, got {len(others)}"
        )
    k = ActionProfile(tuple(others)).exposer_count  # also checks every entry
    rule = _cost_rule(scenario)
    u_e = _payoff(scenario, rule, ward, True, k + 1)
    u_b = _payoff(scenario, rule, ward, False, k)
    if abs(u_e - u_b) <= epsilon:
        return {Action.EXPOSE, Action.BUFFER}
    return {Action.EXPOSE} if u_e > u_b else {Action.BUFFER}


def is_nash(
    scenario: Scenario, profile: ActionProfile, epsilon: float = 0.0
) -> NashCheck:
    """Unilateral-deviation check via direct payoff evaluation.

    Nash iff no ward gains more than epsilon by deviating; strict iff every
    deviation strictly loses. Kept independent of the table-based enumerator
    so the two can cross-check each other.
    """
    check_epsilon(epsilon)
    _check_profile(scenario, profile)
    rule = _cost_rule(scenario)
    n, k = scenario.n, profile.exposer_count
    # ward i switching alone moves the exposer count by one, so the payoffs
    # here take the benefit and the penalty at k - 1, k and k + 1 only
    benefit = {j: benefit_at_count(scenario.benefit, j, n)
               for j in range(max(k - 1, 0), min(k + 1, n) + 1)}
    penalty = {j: buffering_penalty(scenario, j) for j in benefit if j < n}
    violators = set()
    strict = True
    for i, action in enumerate(profile.actions):
        expose = action is Action.EXPOSE
        k_e, k_b = (k, k - 1) if expose else (k + 1, k)  # exposing, buffering
        ce, cb = _ward_costs(scenario, i, rule)
        u_e = benefit[k_e] - ce  # _payoff's float expressions
        u_b = benefit[k_b] - cb
        if penalty[k_b] != 0.0:
            u_b -= penalty[k_b]
        gain = u_b - u_e if expose else u_e - u_b
        if gain > epsilon:
            violators.add(i)
        if gain >= -epsilon:
            strict = False
    ok = not violators
    return NashCheck(ok, frozenset(violators), strict if ok else False)


def _nash_plan(
    tables: PayoffTables, epsilon: float
) -> tuple[tuple[NashBlock, ...], tuple[Action | None, ...]]:
    """The Nash profiles, described per exposer count without building them,
    and each ward's strictly dominant action (None without one).

    A ward's deviation gain depends only on the ward and the exposer count k,
    so the Nash profiles with k exposers are exactly the k-sets that contain
    every ward gaining by joining the k exposers (`forced`) and no ward
    gaining by leaving them: the remaining `seats` go to the `free` wards (a
    mask) in every possible way. Leaving k + 1 exposers gains the negated
    gain of joining k, so one pass over k finds both sides, and the wards
    gaining on one side at every count are the ones with a dominant action.
    """
    n = tables.n
    benefit, penalty = tables.benefit, tables.penalty
    # one check per class of interchangeable wards
    shared = [(tables.cost_expose[i], tables.cost_buffer[i], m) for i, m in tables.classes]
    everyone = (1 << n) - 1
    expose_wins = buffer_wins = everyone
    leave = weak_leave = 0  # wards (weakly) gaining by leaving the k exposers
    plan = []
    for k in range(n + 1):
        # wards (weakly) gaining by joining the k exposers, and by leaving k + 1
        join = weak_join = up_leave = up_weak_leave = 0
        if k < n:
            b_up, b_k, p_k = benefit[k + 1], benefit[k], penalty[k]
            for e, c, bits in shared:
                gain = (b_up - e) - ((b_k - c) - p_k)
                if gain > epsilon:
                    join |= bits
                if gain >= -epsilon:
                    weak_join |= bits
                if gain < -epsilon:
                    up_leave |= bits
                if gain <= epsilon:
                    up_weak_leave |= bits
            expose_wins &= join
            buffer_wins &= up_leave
        seats = k - join.bit_count()
        free = everyone & ~(join | leave)
        if not join & leave and 0 <= seats <= free.bit_count():
            plan.append(NashBlock(k, join, free, seats, weak_leave, weak_join))
        leave, weak_leave = up_leave, up_weak_leave
    dominant = tuple(Action.EXPOSE if expose_wins >> i & 1 else
                     Action.BUFFER if buffer_wins >> i & 1 else None for i in range(n))
    return tuple(plan), dominant


def _nash_profiles(
    plan: Sequence[NashBlock], total: int
) -> tuple[tuple[int, bool], ...]:
    """Every pure Nash profile mask with its strictness flag, sorted by mask.

    total is the plan's exact count; a set of more than 4M profiles raises
    ResourceLimitError when the list is first read, before any is built.
    """
    if total > _MAX_NASH_PROFILES:
        raise ResourceLimitError(
            f"the Nash set has {total} profiles, more than the cap of "
            f"{_MAX_NASH_PROFILES} to materialise; use flip_conditions for "
            "the pole profiles instead"
        )
    found = []
    for _, forced, free, seats, we, wb in plan:
        bits = [1 << i for i in range(free.bit_length()) if free >> i & 1]
        for combo in combinations(bits, seats):
            m = forced | sum(combo)
            found.append((m, not (m & we) and not (wb & ~m)))
    found.sort()
    return tuple(found)


def _welfare_search(
    tables: PayoffTables, plan: Sequence[NashBlock]
) -> tuple[tuple[float, int], tuple[float, int] | None]:
    """(welfare, mask) of the welfare optimum and of the best Nash profile
    (None when the plan is empty), without scanning all 2^N profiles.

    Welfare separates per exposer count k into a base term plus a per-ward
    contribution w_i(k), so the best k-profile takes the k wards with the
    largest contributions, and the best Nash k-profile takes the forced wards
    plus the `seats` free wards with the largest contributions. Candidates
    are scored with the floats welfare() sums, in math.fsum, so scores equal
    welfare() exactly. Ties prefer lower ward indices and then smaller k,
    matching the first maximiser a mask-ordered scan would find. A game whose
    welfare sums could leave the float range raises NumericalError.

    When the wards form one class of `tables.classes` and share one charge
    bit pattern, every ranking key ties at every k and the stable sort is the
    identity, so each k skips the ranking: its candidate is the first k
    wards, scored from one repeated entry per action.
    """
    n = tables.n
    benefit, penalty = tables.benefit, tables.penalty
    ce, cb, charge = tables.cost_expose, tables.cost_buffer, tables.charge
    nash = {b.k: b for b in plan}

    def score(k: int, exposers: list[int], others: list[int]) -> float:
        b_k = benefit[k]
        values = [b_k - ce[i] for i in exposers]
        values += [(b_k - cb[i]) - penalty[k] for i in others]  # k < n
        total = fsum(values)
        if charge is None:
            return total
        return total - fsum([charge[i] for i in exposers])

    columns = (ce, cb) if charge is None else (ce, cb, charge)
    # sum, not fsum: a bound past the float range reads inf instead of raising
    bound = n * sum(max(map(abs, v)) for v in (benefit, penalty, *columns))
    if not bound < _MAX_WELFARE:
        raise NumericalError(
            f"welfare overflow: {n} x (max|B| + max|penalty| + max|c_E| + max|c_B| + "
            f"max|charge|) = {bound:.4g} is not below 2^1022, so welfare sums may leave "
            "the float range; scale benefits, costs and penalties down")
    best: tuple[float, int] | None = None  # (welfare, mask)
    best_nash: tuple[float, int] | None = None
    n_classes = len(tables.classes)
    if n_classes == 1 and (charge is None or len(set(_bits(charge))) == 1):
        e, b = ce[0], cb[0]
        for k in range(n + 1):
            b_k = benefit[k]
            values = [b_k - e] * k
            if k < n:
                values += [(b_k - b) - penalty[k]] * (n - k)
            w = fsum(values)
            if charge is not None:
                w -= fsum([charge[0]] * k)
            if best is None or w > best[0]:  # a tie keeps the smaller k's smaller mask
                best = (w, (1 << k) - 1)
            if k in nash and (best_nash is None or w > best_nash[0]):
                # every ward deviates alike, so `free` holds no ward or all of them
                _, forced, _, seats, _, _ = nash[k]
                best_nash = (w, forced | (1 << seats) - 1)
        return best, best_nash
    for k in range(n + 1):
        order = list(range(n))
        if 0 < k < n:
            b_k, p_k = benefit[k], penalty[k]
            gain = [(b_k - e) - ((b_k - b) - p_k) for e, b in zip(ce, cb)]
            if charge is not None:
                gain = [g - c for g, c in zip(gain, charge)]
            elif n_classes > 1 and len(set(gain)) < n_classes:
                # wards of a class share their exact key, so a float tie can hide
                # unequal exact keys: rank by (key, exact residual)
                gain = [(g, fsum((b_k - e, -((b_k - b) - p_k), -g)))
                        for g, e, b in zip(gain, ce, cb)]
            order.sort(key=gain.__getitem__, reverse=True)  # ties stay in index order
        w = score(k, order[:k], order[k:])
        if best is None or w >= best[0]:
            mask = sum(1 << i for i in order[:k])
            if best is None or w > best[0] or mask < best[1]:
                best = (w, mask)
        if k in nash:
            _, forced, free, seats, _, _ = nash[k]
            exposers, others = [], []
            for i in order:
                if forced >> i & 1:
                    exposers.append(i)
                elif seats and free >> i & 1:
                    exposers.append(i)
                    seats -= 1
                else:
                    others.append(i)
            w = score(k, exposers, others)
            if best_nash is None or w > best_nash[0]:
                best_nash = (w, sum(1 << i for i in exposers))
    assert best is not None
    return best, best_nash


def enumerate_nash(scenario: Scenario, epsilon: float = 0.0) -> EquilibriumReport:
    """The exact pure Nash set of the scenario plus the full report.

    The Nash set is exact for symmetric and asymmetric wards alike and is
    counted without building it; its profile list is built when it is first
    read, and a set of more than 4M profiles raises ResourceLimitError then.
    The payoff tables are built once; welfare() is called only on the
    welfare optimum and on the best Nash profile.
    """
    check_epsilon(epsilon)
    return _analyse(scenario, payoff_tables(scenario), epsilon, oracle=True)


def _analyse(
    scenario: Scenario, tables: PayoffTables, epsilon: float, *, oracle: bool
) -> EquilibriumReport:
    """enumerate_nash on the scenario's compiled game `tables`. Unless
    `oracle` is set, both welfare figures are the welfare search's scores,
    which equal welfare() bit for bit, and welfare() is not called."""
    n = scenario.n
    plan, dominant = _nash_plan(tables, epsilon)
    (opt_welfare, opt_mask), best_nash = _welfare_search(tables, plan)
    opt_profile = ActionProfile.from_mask(opt_mask, n)
    gap = None if best_nash is None else opt_welfare - best_nash[0]
    if oracle:  # both figures from the welfare() oracle instead
        opt_welfare = welfare(scenario, opt_profile)
        if best_nash is not None:
            gap = opt_welfare - welfare(scenario, ActionProfile.from_mask(best_nash[1], n))
    # mask 0 is the only Nash profile with k = 0, all-Expose the only one with k = N
    counts = {b.k for b in plan}
    if all(d is Action.BUFFER for d in dominant):
        cls = Classification.DOMINANT_BUFFER
    elif all(d is Action.EXPOSE for d in dominant):
        cls = Classification.DOMINANT_EXPOSE
    elif 0 in counts and n in counts:
        cls = Classification.BISTABLE
    else:
        cls = Classification.MIXED_OTHER
    return EquilibriumReport(
        n=n,
        nash_count=sum(comb(b.free.bit_count(), b.seats) for b in plan),
        nash_plan=plan,
        dominant_strategy=dominant,
        welfare_optimum=(opt_profile, opt_welfare),
        welfare_gap=gap,
        classification=cls,
    )


def flip_conditions(scenario: Scenario, epsilon: float = 0.0) -> FlipReport:
    """Evaluate the archetype flip inequalities per ward.

    Margins are taken at the all-others-buffer profile under the baseline
    game plus that archetype's interventions alone, so each report line shows
    what one archetype does to the incentive in isolation. The game is
    compiled once, and each archetype swaps in its own costs and penalty.
    blocking_wards comes from the fully effective game at all-Expose.
    """
    check_epsilon(epsilon)
    n = scenario.n
    t_full = payoff_tables(scenario)
    mech, d_e, d_b = _cost_rule(scenario)
    no_penalty = (0.0,) * n

    def isolated(rule: tuple, penalty: tuple[float, ...]) -> PayoffTables:
        return replace(t_full, penalty=penalty, **_cost_fields(scenario, rule))

    t_base = isolated((None, 0.0, 0.0), no_penalty)
    t_effort = isolated((None, d_e, d_b), no_penalty)
    t_obs = replace(t_base, penalty=t_full.penalty)
    t_mech = isolated((mech, 0.0, 0.0), no_penalty)
    margins = zip(*(t.gains(0) for t in (t_base, t_effort, t_obs, t_mech)))
    wards = tuple(
        WardFlip(
            ward=i,
            baseline_margin=m_base,
            baseline_buffer_best=m_base < -epsilon,
            effort_margin=m_eff,
            effort_buffer_holds=m_eff <= epsilon,
            observability_margin=m_obs,
            observability_buffer_holds=m_obs <= epsilon,
            mechanism_margin=m_mech,
            mechanism_expose_holds=m_mech >= -epsilon,
        )
        for i, (m_base, m_eff, m_obs, m_mech) in enumerate(margins)
    )
    return FlipReport(
        wards=wards, blocking_wards=t_full.pole_deviators(True, epsilon)
    )
