"""Exact equilibrium analysis: Nash enumeration, best responses, flip checks.

Enumeration is exact over all 2^N pure profiles without visiting them: the
game is anonymous, so deviation incentives are checked once per ward and
exposer count, and the Nash set is built from those checks. Comparisons use a
configurable epsilon (default 0: exact float comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

from .errors import ResourceLimitError, ScenarioError
from .interventions import (
    EffortReduction,
    Mechanism,
    Observability,
    PayoffTables,
    effective_payoff,
    is_symmetric,
    payoff_tables,
)
from .model import Action, ActionProfile, Scenario, welfare

# Materialising a Nash set of more than this many profiles is refused.
_MAX_NASH_PROFILES = 1 << 22


class Classification(Enum):
    DOMINANT_BUFFER = "DominantBuffer"
    DOMINANT_EXPOSE = "DominantExpose"
    BISTABLE = "Bistable"
    MIXED_OTHER = "Mixed/Other"


class NashCheck(NamedTuple):
    is_nash: bool
    violating_wards: frozenset[int]
    strict: bool


@dataclass(frozen=True)
class EquilibriumReport:
    """Everything enumerate_nash knows about a scenario's pure equilibria.

    nash_profiles pairs each equilibrium with its strictness flag, sorted by
    profile mask. dominant_strategy holds a ward's strictly dominant action or
    None. welfare_gap is optimal welfare minus best-Nash welfare (None when no
    pure Nash exists).
    """

    nash_profiles: tuple[tuple[ActionProfile, bool], ...]
    dominant_strategy: tuple[Action | None, ...]
    welfare_optimum: tuple[ActionProfile, float]
    welfare_gap: float | None
    classification: Classification


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
    n = scenario.n
    if not 0 <= ward < n:
        raise ScenarioError(f"ward index {ward} out of range [0, {n - 1}]")
    if len(others) != n - 1:
        raise ScenarioError(
            f"profile-of-others must have {n - 1} actions, got {len(others)}"
        )
    acts = list(others)
    acts.insert(ward, Action.EXPOSE)
    u_e = effective_payoff(scenario, ActionProfile(tuple(acts)), ward)
    acts[ward] = Action.BUFFER
    u_b = effective_payoff(scenario, ActionProfile(tuple(acts)), ward)
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
    if len(profile) != scenario.n:
        raise ScenarioError(
            f"profile length {len(profile)} does not match {scenario.n} wards"
        )
    violators = set()
    strict = True
    for i in range(scenario.n):
        u_cur = effective_payoff(scenario, profile, i)
        dev = profile.with_action(i, profile.actions[i].flipped())
        u_dev = effective_payoff(scenario, dev, i)
        gain = u_dev - u_cur
        if gain > epsilon:
            violators.add(i)
        if gain >= -epsilon:
            strict = False
    ok = not violators
    return NashCheck(ok, frozenset(violators), strict if ok else False)


def _deviation_masks(
    tables: PayoffTables, epsilon: float
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Per exposer-count bitmasks of wards that would deviate.

    bad_e[k] / bad_b[k]: wards strictly gaining by leaving Expose / Buffer in
    a k-exposer profile. weak_e[k] / weak_b[k]: wards whose deviation does not
    strictly lose (breaks strictness).
    """
    n = tables.n
    bad_e = [0] * (n + 1)
    bad_b = [0] * (n + 1)
    weak_e = [0] * (n + 1)
    weak_b = [0] * (n + 1)
    for k in range(n + 1):
        for i in range(n):
            if k >= 1:
                gain = tables.buffer[i][k - 1] - tables.expose[i][k - 1]
                if gain > epsilon:
                    bad_e[k] |= 1 << i
                if gain >= -epsilon:
                    weak_e[k] |= 1 << i
            if k <= n - 1:
                gain = tables.expose[i][k] - tables.buffer[i][k]
                if gain > epsilon:
                    bad_b[k] |= 1 << i
                if gain >= -epsilon:
                    weak_b[k] |= 1 << i
    return bad_e, bad_b, weak_e, weak_b


def _nash_profiles(tables: PayoffTables, epsilon: float) -> list[tuple[int, bool]]:
    """Every pure Nash profile mask with its strictness flag, sorted by mask.

    A ward's deviation gain depends only on the ward and the exposer count k,
    so the Nash profiles with k exposers are exactly the k-sets that contain
    every ward in bad_b[k] and no ward in bad_e[k]: the remaining seats go to
    the free wards in every possible way. The count is summed exactly before
    anything is built, and only the materialised output is capped.
    """
    n = tables.n
    bad_e, bad_b, weak_e, weak_b = _deviation_masks(tables, epsilon)
    plan = []
    total = 0
    for k in range(n + 1):
        forced = bad_b[k]
        if forced & bad_e[k]:
            continue
        seats = k - forced.bit_count()
        free = [1 << i for i in range(n) if not ((forced | bad_e[k]) >> i) & 1]
        if not 0 <= seats <= len(free):
            continue
        plan.append((k, forced, free, seats))
        total += comb(len(free), seats)
    if total > _MAX_NASH_PROFILES:
        raise ResourceLimitError(
            f"the Nash set has {total} profiles, more than the cap of "
            f"{_MAX_NASH_PROFILES} to materialise; use flip_conditions for "
            "the pole profiles instead"
        )
    found = []
    for k, forced, free, seats in plan:
        we, wb = weak_e[k], weak_b[k]
        for combo in combinations(free, seats):
            m = forced | sum(combo)
            found.append((m, not (m & we) and not (wb & ~m)))
    found.sort()
    return found


def _dominant_strategies(
    tables: PayoffTables, epsilon: float
) -> tuple[Action | None, ...]:
    out: list[Action | None] = []
    for i in range(tables.n):
        gains = [tables.gain_to_expose(i, j) for j in range(tables.n)]
        if all(g > epsilon for g in gains):
            out.append(Action.EXPOSE)
        elif all(g < -epsilon for g in gains):
            out.append(Action.BUFFER)
        else:
            out.append(None)
    return tuple(out)


def _welfare_optimum(
    scenario: Scenario, tables: PayoffTables
) -> tuple[ActionProfile, float]:
    """Exact welfare argmax without scanning all 2^N profiles.

    Welfare separates per exposer count k into a base term plus a per-ward
    contribution w_i(k), so the best k-profile takes the k wards with the
    largest contributions. Ties prefer lower ward indices and then smaller k,
    matching the first maximiser a mask-ordered scan would find.
    """
    from .interventions import MechanismMode, resolved_mechanism

    n = scenario.n
    caps, mode = resolved_mechanism(scenario)
    charge = [0.0] * n
    if caps is not None and mode is MechanismMode.REDISTRIBUTE:
        charge = [w.cost_expose - caps[w.id] for w in scenario.wards]
    best: tuple[float, int] | None = None  # (welfare, mask)
    for k in range(n + 1):
        if k == 0:
            mask = 0
        elif k == n:
            mask = (1 << n) - 1
        else:
            order = sorted(
                range(n),
                key=lambda i: (
                    -(tables.expose[i][k - 1] - tables.buffer[i][k] - charge[i]),
                    i,
                ),
            )
            mask = 0
            for i in order[:k]:
                mask |= 1 << i
        w = welfare(scenario, ActionProfile.from_mask(mask, n))
        if best is None or w > best[0] or (w == best[0] and mask < best[1]):
            best = (w, mask)
    assert best is not None
    return ActionProfile.from_mask(best[1], n), best[0]


def enumerate_nash(scenario: Scenario, epsilon: float = 0.0) -> EquilibriumReport:
    """Every pure Nash profile of the scenario plus the full report.

    The Nash set is exact for symmetric and asymmetric wards alike; a set of
    more than 4M profiles raises ResourceLimitError before any is built.
    """
    n = scenario.n
    tables = payoff_tables(scenario)
    found = _nash_profiles(tables, epsilon)
    masks = [m for m, _ in found]
    nash_profiles = tuple((ActionProfile.from_mask(m, n), s) for m, s in found)
    dominant = _dominant_strategies(tables, epsilon)
    opt_profile, opt_welfare = _welfare_optimum(scenario, tables)
    if masks:
        # welfare is constant on a symmetric orbit, so distinct counts suffice
        symmetric = is_symmetric(scenario)
        seen_k: dict[int, float] = {}
        best_nash = None
        for m in masks:
            k = m.bit_count()
            if symmetric and k in seen_k:
                w = seen_k[k]
            else:
                w = welfare(scenario, ActionProfile.from_mask(m, n))
                if symmetric:
                    seen_k[k] = w
            if best_nash is None or w > best_nash:
                best_nash = w
        gap: float | None = opt_welfare - best_nash
    else:
        gap = None
    if all(d is Action.BUFFER for d in dominant):
        cls = Classification.DOMINANT_BUFFER
    elif all(d is Action.EXPOSE for d in dominant):
        cls = Classification.DOMINANT_EXPOSE
    elif 0 in masks and ((1 << n) - 1) in masks:
        cls = Classification.BISTABLE
    else:
        cls = Classification.MIXED_OTHER
    return EquilibriumReport(
        nash_profiles=nash_profiles,
        dominant_strategy=dominant,
        welfare_optimum=(opt_profile, opt_welfare),
        welfare_gap=gap,
        classification=cls,
    )


def _only(scenario: Scenario, kind: type) -> Scenario:
    return replace(
        scenario,
        interventions=tuple(iv for iv in scenario.interventions if isinstance(iv, kind)),
    )


def flip_conditions(scenario: Scenario, epsilon: float = 0.0) -> FlipReport:
    """Evaluate the archetype flip inequalities per ward.

    Margins are taken at the all-others-buffer profile under the baseline
    game plus that archetype's interventions alone, so each report line shows
    what one archetype does to the incentive in isolation. blocking_wards
    comes from the fully effective game at all-Expose.
    """
    n = scenario.n
    t_base = payoff_tables(replace(scenario, interventions=()))
    t_effort = payoff_tables(_only(scenario, EffortReduction))
    t_obs = payoff_tables(_only(scenario, Observability))
    t_mech = payoff_tables(_only(scenario, Mechanism))
    t_full = payoff_tables(scenario)
    wards = []
    for i in range(n):
        m_base = t_base.gain_to_expose(i, 0)
        m_eff = t_effort.gain_to_expose(i, 0)
        m_obs = t_obs.gain_to_expose(i, 0)
        m_mech = t_mech.gain_to_expose(i, 0)
        wards.append(
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
        )
    blocking = frozenset(
        i
        for i in range(n)
        if t_full.buffer[i][n - 1] - t_full.expose[i][n - 1] > epsilon
    )
    return FlipReport(wards=tuple(wards), blocking_wards=blocking)
