"""The three AI-intervention archetypes as composable payoff transforms.

Effort reduction subtracts a per-action amount from local costs, observability
charges buffering an expected penalty p(k_others) * F, and a mechanism
replaces the structural exposure cost with a capped one. Cost-side transforms
(effort, mechanism) commute; mechanism caps are last-writer-wins; penalties
and effort deltas stack additively across repeated interventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import ScenarioError
from .model import (
    Action,
    ActionProfile,
    Scenario,
    _check_profile,
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
    """The governing (last) mechanism, its per-ward caps checked against N,
    and the summed effort deltas (expose, buffer)."""
    mech: Mechanism | None = None
    d_e = 0.0
    d_b = 0.0
    for iv in scenario.interventions:
        if isinstance(iv, Mechanism):
            mech = iv
        elif isinstance(iv, EffortReduction):
            d_e += iv.delta_expose
            d_b += iv.delta_buffer
    if mech is not None and isinstance(mech.capped_cost_expose, tuple):
        if len(mech.capped_cost_expose) != scenario.n:
            raise ScenarioError(
                f"capped_cost_expose has {len(mech.capped_cost_expose)} entries "
                f"but the scenario has {scenario.n} wards"
            )
    return mech, d_e, d_b


def resolved_mechanism(
    scenario: Scenario,
) -> tuple[tuple[float, ...] | None, MechanismMode | None]:
    """Per-ward caps and mode of the governing (last) mechanism, if any."""
    mech, _, _ = _cost_rule(scenario)
    if mech is None:
        return None, None
    caps = mech.capped_cost_expose
    if isinstance(caps, tuple):
        return caps, mech.mode
    return (float(caps),) * scenario.n, mech.mode


def _ward_costs(
    scenario: Scenario, ward: int, rule: tuple[Mechanism | None, float, float]
) -> tuple[float, float]:
    """One ward's (cost_expose, cost_buffer) under a `_cost_rule`."""
    mech, d_e, d_b = rule
    w = scenario.wards[ward]
    if mech is None:
        ce = w.cost_expose
    elif isinstance(mech.capped_cost_expose, tuple):
        ce = mech.capped_cost_expose[ward]
    else:
        ce = float(mech.capped_cost_expose)
    return ce - d_e, w.cost_buffer - d_b


def effective_costs(scenario: Scenario) -> list[tuple[float, float]]:
    """Post-intervention (cost_expose, cost_buffer) per ward.

    The last mechanism replaces the structural exposure cost; effort deltas
    then subtract. Only cost-side transforms appear here; observability
    penalties live on the payoff, not the cost.
    """
    rule = _cost_rule(scenario)
    return [_ward_costs(scenario, i, rule) for i in range(scenario.n)]


def buffering_penalty(scenario: Scenario, k_others: int, n: int) -> float:
    """Total expected consequence charged to a buffering ward."""
    pen = 0.0
    for iv in scenario.interventions:
        if isinstance(iv, Observability) and iv.penalty != 0.0:
            pen += detection_probability(iv, k_others, n) * iv.penalty
    return pen


def effective_payoff(scenario: Scenario, profile: ActionProfile, ward: int) -> float:
    """The post-intervention payoff u_i used by every downstream module."""
    _check_profile(scenario, profile)
    n = scenario.n
    if not 0 <= ward < n:
        raise ScenarioError(f"ward index {ward} out of range [0, {n - 1}]")
    action = profile.actions[ward]
    k = profile.exposer_count
    ce, cb = _ward_costs(scenario, ward, _cost_rule(scenario))
    u = benefit_at_count(scenario.benefit, k, n) - (
        ce if action is Action.EXPOSE else cb
    )
    if action is Action.BUFFER:
        # a buffering ward is not an exposer, so k_others == k here
        pen = buffering_penalty(scenario, k, n)
        if pen != 0.0:
            u -= pen
    return u


def system_borne_cost(scenario: Scenario, profile: ActionProfile) -> float:
    """Cost the system absorbs under a redistributing mechanism, else 0."""
    caps, mode = resolved_mechanism(scenario)
    if caps is None or mode is not MechanismMode.REDISTRIBUTE:
        return 0.0
    return math.fsum(
        w.cost_expose - caps[w.id]
        for w, a in zip(scenario.wards, profile.actions)
        if a is Action.EXPOSE
    )


def is_symmetric(scenario: Scenario) -> bool:
    """True when every ward faces identical effective incentives."""
    w0 = scenario.wards[0]
    if any(
        w.cost_expose != w0.cost_expose or w.cost_buffer != w0.cost_buffer
        for w in scenario.wards
    ):
        return False
    caps, _ = resolved_mechanism(scenario)
    if caps is not None and any(c != caps[0] for c in caps):
        return False
    return True


@dataclass(frozen=True)
class PayoffTables:
    """Effective payoffs indexed by [ward][count of exposing others].

    expose[i][j] is ward i's payoff for exposing when j others expose;
    buffer[i][j] likewise for buffering. Valid because the benefit depends on
    others only through their exposer count. Wards with the same effective
    costs share one row object.
    """

    n: int
    expose: tuple[tuple[float, ...], ...]
    buffer: tuple[tuple[float, ...], ...]

    def gain_to_expose(self, ward: int, k_others: int) -> float:
        return self.expose[ward][k_others] - self.buffer[ward][k_others]

    def pole_deviators(self, all_expose: bool, epsilon: float) -> frozenset[int]:
        """Wards gaining more than epsilon by leaving the all-Expose profile
        (all-Buffer when all_expose is False); it is Nash iff there are none."""
        j = self.n - 1 if all_expose else 0
        rows = enumerate(zip(self.expose, self.buffer))
        return frozenset(
            i for i, (e, b) in rows if (b[j] - e[j] if all_expose else e[j] - b[j]) > epsilon
        )


def payoff_tables(scenario: Scenario) -> PayoffTables:
    """Precompute all effective payoffs; bit-identical to effective_payoff.

    One expose row and one buffer row are built per distinct effective cost
    pair, so identical wards cost O(N) in all.
    """
    n = scenario.n
    benefits = [benefit_at_count(scenario.benefit, k, n) for k in range(n + 1)]
    pens = [buffering_penalty(scenario, j, n) for j in range(n)]
    rows: dict[tuple[float, ...], tuple[tuple[float, ...], tuple[float, ...]]] = {}
    expose = []
    buffer = []
    for ce, cb in effective_costs(scenario):
        # 0.0 == -0.0, but they can round differently: keep the signs apart
        key = (ce, cb, math.copysign(1.0, ce), math.copysign(1.0, cb))
        row = rows.get(key)
        if row is None:
            row = rows[key] = (
                tuple(benefits[j + 1] - ce for j in range(n)),
                tuple(
                    (benefits[j] - cb) - pens[j] if pens[j] != 0.0 else benefits[j] - cb
                    for j in range(n)
                ),
            )
        expose.append(row[0])
        buffer.append(row[1])
    return PayoffTables(n=n, expose=tuple(expose), buffer=tuple(buffer))
