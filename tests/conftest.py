"""Shared fixtures: the canonical scenarios, a randomized generator and the
2^N is_nash scan that every Nash enumerator test compares against."""

from __future__ import annotations

import random
import struct

import pytest

from wardgames import (
    ActionProfile,
    ConcaveBenefit,
    EffortReduction,
    LinearBenefit,
    Mechanism,
    MechanismMode,
    Observability,
    Scenario,
    TableBenefit,
    ThresholdBenefit,
    Ward,
    is_nash,
    symmetric_scenario,
)


@pytest.fixture
def s0() -> Scenario:
    """N=4 symmetric wards, c(E)=2, c(B)=1, linear benefit 0.3 per exposer."""
    return symmetric_scenario(4, 2.0, 1.0, LinearBenefit(0.3))


@pytest.fixture
def v0() -> Scenario:
    """The veto game: benefit 3.0 only when all four wards expose."""
    return symmetric_scenario(4, 2.0, 1.0, ThresholdBenefit(tau=4, beta=3.0))


def random_benefit(rng: random.Random, n: int):
    kind = rng.randrange(4)
    if kind == 0:
        return LinearBenefit(rng.uniform(0.0, 1.0))
    if kind == 1:
        return ThresholdBenefit(tau=rng.randint(1, n), beta=rng.uniform(0.0, 3.0))
    if kind == 2:
        return ConcaveBenefit(beta=rng.uniform(0.2, 2.0), gamma=rng.uniform(0.3, 1.0))
    values = [0.0]
    for _ in range(n):
        values.append(values[-1] + rng.uniform(0.0, 0.6))
    return TableBenefit(tuple(values))


def random_interventions(rng: random.Random, n: int, max_expose_cost: float):
    ivs = []
    if rng.random() < 0.4:
        ivs.append(
            EffortReduction(rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8))
        )
    if rng.random() < 0.4:
        ivs.append(
            Observability(
                p0=rng.uniform(0.0, 1.0),
                p_slope=rng.uniform(-1.0, 1.0),
                penalty=rng.uniform(0.0, 2.0),
            )
        )
    if rng.random() < 0.4:
        mode = rng.choice(list(MechanismMode))
        ivs.append(Mechanism(rng.uniform(0.0, max_expose_cost), mode))
    rng.shuffle(ivs)
    return tuple(ivs)


def random_scenario(
    rng: random.Random,
    n: int | None = None,
    max_n: int = 8,
    symmetric: bool | None = None,
    with_interventions: bool = False,
) -> Scenario:
    """Continuous random costs so knife-edge payoff ties have measure zero."""
    if n is None:
        n = rng.randint(2, max_n)
    if symmetric is None:
        symmetric = rng.random() < 0.5
    if symmetric:
        cb = rng.uniform(0.2, 2.0)
        ce = cb + rng.uniform(0.05, 2.0)
        wards = (Ward(ce, cb),) * n
    else:
        wards = tuple(
            Ward(rng.uniform(0.3, 4.0), rng.uniform(0.1, 2.0)) for _ in range(n)
        )
    benefit = random_benefit(rng, n)
    ivs = ()
    if with_interventions:
        max_ce = max(w.cost_expose for w in wards)
        ivs = random_interventions(rng, n, max_ce)
    return Scenario(wards=wards, benefit=benefit, interventions=ivs)


def repeated_costs_scenario(
    rng: random.Random, max_n: int = 8, with_interventions: bool = False
) -> Scenario:
    """Asymmetric wards drawn from three dyadic cost pairs, so several wards
    share effective costs and many deviation gains tie exactly."""
    n = rng.randint(3, max_n)
    pairs = [
        (rng.choice((1.0, 1.5, 2.0, 2.5)), rng.choice((0.25, 0.5, 1.0)))
        for _ in range(3)
    ]
    wards = tuple(Ward(*rng.choice(pairs)) for _ in range(n))
    values = [0.0]
    for _ in range(n):
        values.append(values[-1] + rng.choice((0.25, 0.5, 0.75, 1.0)))
    ivs = []
    if with_interventions:
        if rng.random() < 0.5:
            ivs.append(EffortReduction(rng.choice((0.0, 0.25)), rng.choice((0.0, 0.25))))
        if rng.random() < 0.5:
            ivs.append(Observability(p0=0.5, p_slope=0.0, penalty=rng.choice((0.5, 1.0))))
        if rng.random() < 0.5:
            caps = tuple(rng.choice((0.5, 1.0)) for _ in range(n))
            ivs.append(Mechanism(caps, rng.choice(list(MechanismMode))))
        rng.shuffle(ivs)
    return Scenario(wards, TableBenefit(tuple(values)), tuple(ivs))


def interchangeable_edge_scenarios() -> list[Scenario]:
    """Wards that are, or only look, interchangeable: 0.0 and -0.0 costs
    (mixed, then all -0.0) under a benefit table holding -0.0, one
    redistribute charge shared by every ward, and equal effective costs under
    a common cap whose charges differ, decreasing with the ward index."""
    table = TableBenefit((-0.0, 0.25, -0.0, -0.0, -0.0))
    obs = Observability(p0=0.5, p_slope=0.0, penalty=1.0)
    redistribute = Mechanism(1.1, MechanismMode.REDISTRIBUTE)
    signed = (Ward(0.0, -0.0), Ward(-0.0, 0.0), Ward(0.0, 0.0),
              Ward(-0.0, -0.0))
    capped = tuple(Ward(3.5 - 0.5 * i, 0.5) for i in range(5))
    return [
        Scenario(signed, table, (obs,)),
        Scenario((Ward(-0.0, -0.0),) * 4, table, (obs,)),
        symmetric_scenario(5, 2.0, 0.5, LinearBenefit(0.4), [obs, redistribute]),
        Scenario(capped, LinearBenefit(0.4), (obs, redistribute)),
    ]


def assert_classes(tables) -> None:
    """tables.classes against its contract: the masks partition the wards in
    order of their first wards, and two wards share a class iff the bits of
    their effective costs are equal."""
    def bits(i: int) -> bytes:
        return struct.pack("<dd", tables.cost_expose[i], tables.cost_buffer[i])

    seen = 0
    for first, mask in tables.classes:
        members = [i for i in range(tables.n) if mask >> i & 1]
        assert members[0] == first and not seen & mask
        assert {bits(i) for i in members} == {bits(first)}
        seen |= mask
    firsts = [first for first, _ in tables.classes]
    assert seen == (1 << tables.n) - 1 and firsts == sorted(firsts)
    assert len({bits(i) for i in firsts}) == len(firsts)


def scan_nash(scenario: Scenario, epsilon: float = 0.0) -> list[tuple[int, bool]]:
    """(mask, strict) of every Nash profile, in mask order, found by asking
    is_nash about each of the 2^N profiles. It evaluates payoffs directly, so
    it shares no code with the table-based enumerator."""
    n = scenario.n
    found = []
    for mask in range(1 << n):
        check = is_nash(scenario, ActionProfile.from_mask(mask, n), epsilon)
        if check.is_nash:
            found.append((mask, check.strict))
    return found


def nash_list(report) -> list[tuple[int, bool]]:
    """(mask, strict) of every profile an EquilibriumReport lists, in order."""
    return [(p.mask, strict) for p, strict in report.nash_profiles]
