"""Core game definition: wards, actions, system-benefit curves, payoffs.

A scenario is N wards, each choosing to Expose spare capacity to the system
or Buffer it locally. Every ward pays a local cost for its own action and
receives a common system benefit that depends only on how many wards expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover
    from .interventions import Intervention


class Action(Enum):
    """A ward's choice."""

    EXPOSE = "E"
    BUFFER = "B"

    def __str__(self) -> str:
        return self.value

    def flipped(self) -> "Action":
        return Action.BUFFER if self is Action.EXPOSE else Action.EXPOSE


_BITS_TO_ACTIONS = str.maketrans("10", "EB")
_ACTIONS_TO_BITS = str.maketrans("EB", "10")
_ACTIONS = {a.value: a for a in Action}
_LETTER = attrgetter("_value_")  # Action.value without its descriptor call


@dataclass(frozen=True)
class ActionProfile:
    """An assignment of an action to each ward, ward 0 leftmost."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        acts = tuple(self.actions)
        if not acts:
            raise ScenarioError("profile must contain at least one action")
        if not {Action}.issuperset(map(type, acts)):
            bad = next(a for a in acts if not isinstance(a, Action))
            raise ScenarioError(f"profile entries must be Action, got {bad!r}")
        object.__setattr__(self, "actions", acts)

    def __len__(self) -> int:
        return len(self.actions)

    def __str__(self) -> str:
        return "".join(map(_LETTER, self.actions))

    @cached_property
    def exposer_count(self) -> int:
        return self.actions.count(Action.EXPOSE)

    @property
    def mask(self) -> int:
        """Bitmask form; bit i is set iff ward i exposes."""
        return int(str(self).translate(_ACTIONS_TO_BITS)[::-1], 2)

    @classmethod
    def from_string(cls, text: str) -> "ActionProfile":
        try:
            return cls(tuple(Action(ch) for ch in text))
        except ValueError as exc:
            raise ScenarioError(
                f"profile string must use only 'E' and 'B', got {text!r}"
            ) from exc

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "ActionProfile":
        if n < 1 or mask < 0 or mask >= (1 << n):
            raise ScenarioError(f"mask {mask} out of range for {n} wards")
        return cls(tuple(map(_ACTIONS.__getitem__, profile_string(mask, n))))

    @classmethod
    def all_expose(cls, n: int) -> "ActionProfile":
        return cls((Action.EXPOSE,) * n)

    @classmethod
    def all_buffer(cls, n: int) -> "ActionProfile":
        return cls((Action.BUFFER,) * n)

    def with_action(self, ward: int, action: Action) -> "ActionProfile":
        acts = list(self.actions)
        acts[ward] = action
        return ActionProfile(tuple(acts))


def profile_string(mask: int, n: int) -> str:
    """str(ActionProfile.from_mask(mask, n)) without building the profile."""
    return format(mask, f"0{n}b")[::-1].translate(_BITS_TO_ACTIONS)


@dataclass(frozen=True)
class Ward:
    """One inpatient ward with its local action costs.

    cost_expose is the local workload/risk of revealing capacity, cost_buffer
    the cost of holding it back. Both are abstract local cost units.
    """

    id: int
    cost_expose: float
    cost_buffer: float

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ScenarioError(f"ward id must be non-negative, got {self.id}")
        for name in ("cost_expose", "cost_buffer"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ScenarioError(
                    f"ward {self.id}: {name} must be finite and >= 0, got {v}"
                )


@dataclass(frozen=True)
class LinearBenefit:
    """B(k) = beta_per_exposer * k."""

    beta_per_exposer: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta_per_exposer) or self.beta_per_exposer < 0:
            raise ScenarioError("beta_per_exposer must be finite and >= 0")


@dataclass(frozen=True)
class ThresholdBenefit:
    """B(k) = beta if k >= tau else 0. tau = N is the veto game."""

    tau: int
    beta: float

    def __post_init__(self) -> None:
        if not isinstance(self.tau, int) or isinstance(self.tau, bool) or self.tau < 1:
            raise ScenarioError(f"tau must be an integer >= 1, got {self.tau!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ScenarioError("beta must be finite and >= 0")


@dataclass(frozen=True)
class ConcaveBenefit:
    """B(k) = beta * k**gamma with gamma in (0, 1]."""

    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ScenarioError("beta must be finite and >= 0")
        if not math.isfinite(self.gamma) or not 0 < self.gamma <= 1:
            raise ScenarioError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class TableBenefit:
    """B(k) = values[k]; requires exactly N + 1 finite entries."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 3:
            raise ScenarioError("benefit table needs at least 3 entries (N >= 2)")
        for idx, v in enumerate(vals):
            if not math.isfinite(v):
                raise ScenarioError(f"benefit table entry {idx} is not finite: {v}")
        object.__setattr__(self, "values", vals)


BenefitSpec = Union[LinearBenefit, ThresholdBenefit, ConcaveBenefit, TableBenefit]


def benefit_at_count(spec: BenefitSpec, k: int, n: int | None = None) -> float:
    """Evaluate the system benefit B(k) for k exposing wards.

    When n is given, k is checked against [0, n]; a table's own length is
    always enforced.
    """
    if k < 0 or (n is not None and k > n):
        raise ScenarioError(f"exposer count {k} out of range [0, {n}]")
    if isinstance(spec, LinearBenefit):
        return spec.beta_per_exposer * k
    if isinstance(spec, ThresholdBenefit):
        return spec.beta if k >= spec.tau else 0.0
    if isinstance(spec, ConcaveBenefit):
        return spec.beta * float(k) ** spec.gamma
    if isinstance(spec, TableBenefit):
        if k >= len(spec.values):
            raise ScenarioError(
                f"exposer count {k} out of range for benefit table of length "
                f"{len(spec.values)}"
            )
        return spec.values[k]
    raise ScenarioError(f"unknown benefit spec: {spec!r}")


@dataclass(frozen=True)
class Scenario:
    """The full game: wards, a benefit curve, and an ordered intervention list."""

    wards: tuple[Ward, ...]
    benefit: BenefitSpec
    interventions: tuple["Intervention", ...] = field(default=())

    def __post_init__(self) -> None:
        wards = tuple(self.wards)
        ivs = tuple(self.interventions)
        object.__setattr__(self, "wards", wards)
        object.__setattr__(self, "interventions", ivs)
        n = len(wards)
        if n < 2:
            raise ScenarioError(f"a scenario needs at least 2 wards, got {n}")
        ids = [w.id for w in wards]
        if ids != list(range(n)):
            raise ScenarioError(f"ward ids must be 0..{n - 1} with no gaps, got {ids}")
        if isinstance(self.benefit, TableBenefit) and len(self.benefit.values) != n + 1:
            raise ScenarioError(
                f"benefit table must have exactly {n + 1} entries for {n} wards, "
                f"got {len(self.benefit.values)}"
            )
        if isinstance(self.benefit, ThresholdBenefit) and self.benefit.tau > n:
            raise ScenarioError(
                f"threshold tau must lie in [1, {n}], got {self.benefit.tau}"
            )
        from .interventions import Mechanism  # deferred to avoid import cycle

        for idx, iv in enumerate(ivs):
            if isinstance(iv, Mechanism) and isinstance(iv.capped_cost_expose, tuple):
                if len(iv.capped_cost_expose) != n:
                    raise ScenarioError(
                        f"interventions[{idx}].capped_cost_expose has "
                        f"{len(iv.capped_cost_expose)} entries but the scenario "
                        f"has {n} wards"
                    )

    @property
    def n(self) -> int:
        return len(self.wards)

    def benefit_at(self, k: int) -> float:
        return benefit_at_count(self.benefit, k, self.n)


def symmetric_scenario(
    n: int,
    cost_expose: float,
    cost_buffer: float,
    benefit: BenefitSpec,
    interventions: Iterable["Intervention"] = (),
) -> Scenario:
    """Convenience constructor for N identical wards."""
    wards = tuple(Ward(i, cost_expose, cost_buffer) for i in range(n))
    return Scenario(wards=wards, benefit=benefit, interventions=tuple(interventions))


def _check_profile(scenario: Scenario, profile: ActionProfile) -> None:
    if len(profile) != scenario.n:
        raise ScenarioError(
            f"profile length {len(profile)} does not match {scenario.n} wards"
        )


def welfare(scenario: Scenario, profile: ActionProfile) -> float:
    """Sum of ward payoffs, charged with any system-borne redistribution cost.

    Summation uses math.fsum so the result is exact to one rounding and
    invariant under ward permutation.
    """
    from .interventions import effective_payoff, system_borne_cost

    _check_profile(scenario, profile)
    total = math.fsum(
        effective_payoff(scenario, profile, i) for i in range(scenario.n)
    )
    return total - system_borne_cost(scenario, profile)


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect non-fatal diagnostics about a structurally valid scenario.

    Flags wards violating the structural asymmetry c(E) > c(B), reports when
    the near-indifference condition B(1) - B(0) < min_i (c_i(E) - c_i(B))
    fails, and flags mechanism caps that do not actually reduce cost.
    """
    from .interventions import Mechanism

    warnings: list[str] = []
    for w in scenario.wards:
        if w.cost_expose <= w.cost_buffer:
            warnings.append(
                f"ward {w.id}: cost_expose ({w.cost_expose}) does not exceed "
                f"cost_buffer ({w.cost_buffer}); the structural asymmetry "
                "c(E) > c(B) is violated"
            )
    marginal = scenario.benefit_at(1) - scenario.benefit_at(0)
    min_gap = min(w.cost_expose - w.cost_buffer for w in scenario.wards)
    if not marginal < min_gap:
        warnings.append(
            f"near-indifference fails: B(1) - B(0) = {marginal} is not below "
            f"the smallest cost gap {min_gap}, so unilateral exposure already "
            "pays for at least one ward"
        )
    for idx, iv in enumerate(scenario.interventions):
        if isinstance(iv, Mechanism):
            caps = iv.capped_cost_expose
            caps_t = caps if isinstance(caps, tuple) else (caps,) * scenario.n
            for w, cap in zip(scenario.wards, caps_t):
                if cap >= w.cost_expose:
                    warnings.append(
                        f"interventions[{idx}]: cap {cap} for ward {w.id} does "
                        f"not reduce its exposure cost {w.cost_expose}"
                    )
    return warnings
