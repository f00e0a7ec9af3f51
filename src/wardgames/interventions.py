"""The three AI-intervention archetypes as composable payoff transforms.

Effort reduction subtracts a per-action amount from local costs, observability
charges buffering an expected penalty p(k_others) * F, and a mechanism
replaces the structural exposure cost with a capped one. Cost-side transforms
(effort, mechanism) commute; mechanism caps are last-writer-wins; penalties
and effort deltas stack additively across repeated interventions.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union

from .errors import NumericalError, ScenarioError
from .model import (
    Action,
    ActionProfile,
    Scenario,
    _check_profile,
    _check_ward,
    benefit_at_count,
)


@dataclass(frozen=True)
class EffortReduction:
    """Lower the cost of acting: c(a) -> c(a) - delta(a), deltas >= 0."""

    delta_expose: float = 0.0
    delta_buffer: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta_expose", "delta_buffer"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ScenarioError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class Observability:
    """Charge detected buffering an expected consequence.

    The detection probability is affine in the fraction of other wards
    exposing, p(k_others) = clamp(p0 + p_slope * k_others / (N - 1), 0, 1);
    p_slope = 0 gives the constant model. penalty is the expected consequence
    F >= 0 and applies to Buffer actions only.
    """

    p0: float
    p_slope: float = 0.0
    # scenario documents must state the penalty; only the library defaults it
    penalty: float = field(default=0.0, metadata={"required": True})

    def __post_init__(self) -> None:
        if not math.isfinite(self.p0) or not 0 <= self.p0 <= 1:
            raise ScenarioError(f"p0 must lie in [0, 1], got {self.p0}")
        if not math.isfinite(self.p_slope):
            raise ScenarioError(f"p_slope must be finite, got {self.p_slope}")
        if not math.isfinite(self.penalty) or self.penalty < 0:
            raise ScenarioError(f"penalty must be finite and >= 0, got {self.penalty}")


class MechanismMode(Enum):
    """What happens to the risk the mechanism takes off the ward.

    ABSORB: the mechanism genuinely eliminates it; welfare sees only capped
    costs. REDISTRIBUTE: the difference cost_expose - cap is system-borne and
    charged back in welfare accounting.
    """

    ABSORB = "absorb"
    REDISTRIBUTE = "redistribute"


@dataclass(frozen=True)
class Mechanism:
    """Bound or redistribute the local cost of exposing: c_i(E) -> cap_i.

    capped_cost_expose is either a single value broadcast to every ward or a
    per-ward sequence of length N. Buffer costs are never touched.
    """

    capped_cost_expose: float | tuple[float, ...]
    mode: MechanismMode = MechanismMode.ABSORB

    def __post_init__(self) -> None:
        caps = self.capped_cost_expose
        if isinstance(caps, (list, tuple)):
            caps = tuple(float(c) for c in caps)
            object.__setattr__(self, "capped_cost_expose", caps)
            values = caps
        else:
            values = (float(caps),)
        for v in values:
            if not math.isfinite(v) or v < 0:
                raise ScenarioError(
                    f"capped_cost_expose entries must be finite and >= 0, got {v}"
                )
        if not isinstance(self.mode, MechanismMode):
            raise ScenarioError(f"mode must be a MechanismMode, got {self.mode!r}")


Intervention = Union[EffortReduction, Observability, Mechanism]


def detection_probability(params: Observability, k_others: int, n: int) -> float:
    """p(k_others) = clamp(p0 + p_slope * k_others / (n - 1), 0, 1)."""
    if n < 2:
        raise ScenarioError(f"detection probability needs n >= 2, got {n}")
    if not 0 <= k_others <= n - 1:
        raise ScenarioError(f"k_others {k_others} out of range [0, {n - 1}]")
    p = params.p0 + params.p_slope * k_others / (n - 1)
    return max(0.0, min(1.0, p))


def _cost_rule(scenario: Scenario) -> tuple[Mechanism | None, float, float]:
    """The governing (last) mechanism and the summed effort deltas (expose,
    buffer). Scenario already checked any per-ward caps against N."""
    mech: Mechanism | None = None
    d_e = 0.0
    d_b = 0.0
    for iv in scenario.interventions:
        if isinstance(iv, Mechanism):
            mech = iv
        elif isinstance(iv, EffortReduction):
            d_e += iv.delta_expose
            d_b += iv.delta_buffer
    return mech, d_e, d_b


def _cap(mech: Mechanism, ward: int) -> float:
    """One ward's capped exposure cost under a mechanism."""
    caps = mech.capped_cost_expose
    return caps[ward] if isinstance(caps, tuple) else float(caps)


def _ward_costs(
    scenario: Scenario, ward: int, rule: tuple[Mechanism | None, float, float]
) -> tuple[float, float]:
    """One ward's (cost_expose, cost_buffer) under a `_cost_rule`.

    The last mechanism replaces the structural exposure cost; effort deltas
    then subtract. Observability penalties live on the payoff, not the cost.
    """
    mech, d_e, d_b = rule
    w = scenario.wards[ward]
    ce = w.cost_expose if mech is None else _cap(mech, ward)
    return ce - d_e, w.cost_buffer - d_b


def buffering_penalty(scenario: Scenario, k_others: int) -> float:
    """Total expected consequence charged to a buffering ward."""
    pen = 0.0
    for iv in scenario.interventions:
        if isinstance(iv, Observability) and iv.penalty != 0.0:
            pen += detection_probability(iv, k_others, scenario.n) * iv.penalty
    return pen


def effective_payoff(scenario: Scenario, profile: ActionProfile, ward: int) -> float:
    """The post-intervention payoff u_i used by every downstream module."""
    _check_profile(scenario, profile)
    _check_ward(scenario, ward)
    expose = profile.actions[ward] is Action.EXPOSE
    return _payoff(scenario, _cost_rule(scenario), ward, expose, profile.exposer_count)


def _payoff(scenario: Scenario, rule: tuple[Mechanism | None, float, float],
            ward: int, expose: bool, k: int) -> float:
    """effective_payoff of `ward` exposing (or buffering) in a profile with
    k exposers in all, under the scenario's `_cost_rule`."""
    n = scenario.n
    ce, cb = _ward_costs(scenario, ward, rule)
    u = benefit_at_count(scenario.benefit, k, n) - (ce if expose else cb)
    if not expose:
        # a buffering ward is not an exposer, so k_others == k here
        pen = buffering_penalty(scenario, k)
        if pen != 0.0:
            u -= pen
    return u


def system_borne_cost(scenario: Scenario, profile: ActionProfile) -> float:
    """Cost the system absorbs under a redistributing mechanism, else 0."""
    mech, _, _ = _cost_rule(scenario)
    if mech is None or mech.mode is not MechanismMode.REDISTRIBUTE:
        return 0.0
    return math.fsum(
        w.cost_expose - _cap(mech, i)
        for i, (w, a) in enumerate(zip(scenario.wards, profile.actions))
        if a is Action.EXPOSE
    )


@dataclass(frozen=True)
class PayoffTables:
    """The compiled game: every effective payoff from O(N) numbers.

    Payoffs depend on the other wards only through their exposer count j,
    and wards differ only in their effective costs, so ward i earns
    expose(i, j) = benefit[j + 1] - cost_expose[i] by exposing and
    buffer(i, j) = (benefit[j] - cost_buffer[i]) - penalty[j] by buffering.
    Each entry is computed on demand with the float expression of
    effective_payoff, so it is bit-identical to it. charge[i] is what the
    system bears when ward i exposes under a redistributing mechanism; it is
    None without one. A game with a payoff or gain past the float range
    raises NumericalError when it is built.
    """

    n: int
    benefit: tuple[float, ...]
    penalty: tuple[float, ...]
    cost_expose: tuple[float, ...]
    cost_buffer: tuple[float, ...]
    charge: tuple[float, ...] | None

    def __post_init__(self) -> None:
        # Rounding is monotone, so every payoff entry and deviation gain lies
        # between these two gains of the extreme terms.
        b_lo, b_hi = min(self.benefit), max(self.benefit)
        ce, cb, pen = self.cost_expose, self.cost_buffer, self.penalty
        top = (b_hi - min(ce)) - ((b_lo - max(cb)) - max(pen))
        bottom = (b_lo - max(ce)) - ((b_hi - min(cb)) - min(pen))
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise NumericalError(
                "payoff overflow: a payoff or deviation gain of this game leaves "
                "the float range; scale benefits, costs and penalties down")

    def expose(self, ward: int, k_others: int) -> float:
        return self.benefit[k_others + 1] - self.cost_expose[ward]

    def buffer(self, ward: int, k_others: int) -> float:
        return (self.benefit[k_others] - self.cost_buffer[ward]) - self.penalty[k_others]

    def gain_to_expose(self, ward: int, k_others: int) -> float:
        return self.expose(ward, k_others) - self.buffer(ward, k_others)

    def gains(self, k: int) -> list[float]:
        """gain_to_expose(i, k) of every ward i, in ward order."""
        b_up, b_k, p_k = self.benefit[k + 1], self.benefit[k], self.penalty[k]
        return [(b_up - ce) - ((b_k - cb) - p_k)
                for ce, cb in zip(self.cost_expose, self.cost_buffer)]

    @cached_property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """(first ward, mask) per class of wards whose effective costs have the
        same bits (not ==: b - 0.0 and b - -0.0 differ at b = -0.0), in ward order.
        Charges are not compared: a broadcast cap over unequal costs is one class."""
        found: dict[tuple[int, int], tuple[int, int]] = {}
        for i, key in enumerate(zip(_bits(self.cost_expose), _bits(self.cost_buffer))):
            first, mask = found.get(key, (i, 0))
            found[key] = (first, mask | 1 << i)
        return tuple(found.values())

    def pole_deviators(self, all_expose: bool, epsilon: float) -> frozenset[int]:
        """Wards gaining more than epsilon by leaving the all-Expose profile
        (all-Buffer when all_expose is False); it is Nash iff there are none."""
        j, sign = (self.n - 1, -1.0) if all_expose else (0, 1.0)
        return frozenset(i for i, g in enumerate(self.gains(j)) if sign * g > epsilon)


def _bits(column: tuple[float, ...]) -> array:
    """The int64 bit pattern of each float: equal iff the floats are identical."""
    return array("q", array("d", column).tobytes())


def _benefit_fields(scenario: Scenario) -> dict:
    """The compiled benefit vector, B(k) for k = 0..N."""
    n = scenario.n
    return {"benefit": tuple(benefit_at_count(scenario.benefit, k, n) for k in range(n + 1))}


def _penalty_fields(scenario: Scenario) -> dict:
    """The compiled penalty vector: buffering_penalty at k_others = 0..N-1,
    from the same terms summed in the same order."""
    n, penalty = scenario.n, [0.0] * scenario.n
    for iv in scenario.interventions:
        if isinstance(iv, Observability) and iv.penalty != 0.0:
            for j in range(n):
                penalty[j] += detection_probability(iv, j, n) * iv.penalty
    return {"penalty": tuple(penalty)}


def _cost_fields(scenario: Scenario, rule: tuple | None = None) -> dict:
    """Each ward's effective costs under a `_cost_rule` (the scenario's own by
    default), and its charge when the rule's mechanism redistributes."""
    rule = _cost_rule(scenario) if rule is None else rule
    ce, cb = zip(*(_ward_costs(scenario, i, rule) for i in range(scenario.n)))
    mech = rule[0]
    charge = None
    if mech is not None and mech.mode is MechanismMode.REDISTRIBUTE:
        charge = tuple(w.cost_expose - _cap(mech, i) for i, w in enumerate(scenario.wards))
    return {"cost_expose": ce, "cost_buffer": cb, "charge": charge}


def payoff_tables(scenario: Scenario) -> PayoffTables:
    """Compile the scenario's effective payoffs in O(N) time and memory."""
    return PayoffTables(n=scenario.n, **_benefit_fields(scenario),
                        **_penalty_fields(scenario), **_cost_fields(scenario))
