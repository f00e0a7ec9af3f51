"""Parameter sweeps and critical-threshold solving.

A dotted path like "interventions[0].penalty" addresses one numeric field of
a scenario; sweeps re-evaluate the equilibrium analysis across a grid of
values and the threshold solver bisects for the exact intervention strength
at which a named equilibrium predicate flips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable

from .errors import BracketError, ScenarioError
from .equilibrium import _analyse
from .equilibrium import is_nash  # noqa: F401  perfbench's tracer test looks it up here
from .interventions import is_symmetric, payoff_tables
from .model import Scenario, profile_string

OBSERVABLES = ("nash_set", "classification", "welfare_gap", "flip_margins")
# the observables that need a Nash analysis of each grid point
NASH_OBSERVABLES = frozenset({"nash_set", "classification", "welfare_gap"})

# Every grid point runs a full analysis, so larger grids are refused.
MAX_GRID_POINTS = 10**5

# Halving any finite float bracket reaches adjacent floats in under 2100
# steps, so this cap is a backstop that no valid bracket hits.
_MAX_BISECT_ITERS = 2200

# Bisection stops at this bracket width, about 30 halvings of a unit bracket;
# each halving re-evaluates the predicate on a rebuilt scenario.
_BISECT_WIDTH = 1e-9

_PATH_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and what to record at each grid point.

    Provide either an explicit value list or a uniform grid (lo, hi, steps).
    """

    parameter_path: str
    lo: float | None = None
    hi: float | None = None
    steps: int | None = None
    values: tuple[float, ...] | None = None
    observables: tuple[str, ...] = OBSERVABLES

    def __post_init__(self) -> None:
        if self.values is not None:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            if not self.values:
                raise ScenarioError("explicit sweep values must be non-empty")
            if len(self.values) > MAX_GRID_POINTS:
                raise ScenarioError(
                    f"{len(self.values)} sweep values exceed the cap of "
                    f"{MAX_GRID_POINTS}"
                )
        else:
            if self.lo is None or self.hi is None or self.steps is None:
                raise ScenarioError("a sweep needs either values or lo/hi/steps")
            if not self.lo < self.hi:
                raise ScenarioError(f"need lo < hi, got lo={self.lo}, hi={self.hi}")
            if not 2 <= self.steps <= MAX_GRID_POINTS:
                raise ScenarioError(
                    f"steps must lie in [2, {MAX_GRID_POINTS}], got {self.steps}"
                )
        bad = [o for o in self.observables if o not in OBSERVABLES]
        if bad:
            raise ScenarioError(f"unknown observables {bad}; valid: {OBSERVABLES}")

    def grid(self) -> list[float]:
        if self.values is not None:
            return sorted(self.values)
        assert self.lo is not None and self.hi is not None and self.steps is not None
        span = self.hi - self.lo
        return [self.lo + span * i / (self.steps - 1) for i in range(self.steps)]


def _tokens(path: str) -> list[tuple[str, int | None]]:
    out = []
    for part in path.split("."):
        m = _PATH_TOKEN.match(part)
        if not m:
            raise ScenarioError(f"cannot parse parameter path segment {part!r} in {path!r}")
        out.append((m.group(1), int(m.group(2)) if m.group(2) else None))
    return out


def _resolve(
    scenario: Scenario, path: str
) -> tuple[list[tuple[Any, str, int | None]], Any]:
    """The (object, field, index) steps a path takes from the scenario, and
    the numeric value it names. Every segment must be a dataclass field."""
    steps = []
    obj: Any = scenario
    for name, idx in _tokens(path):
        if not is_dataclass(obj) or name not in {f.name for f in fields(obj)}:
            raise ScenarioError(
                f"parameter path {path!r}: no field {name!r} on {type(obj).__name__}"
            )
        steps.append((obj, name, idx))
        obj = getattr(obj, name)
        if idx is not None:
            if not isinstance(obj, tuple):
                raise ScenarioError(f"parameter path {path!r}: {name!r} is not indexable")
            if idx >= len(obj):
                raise ScenarioError(f"parameter path {path!r}: index {idx} out of range")
            obj = obj[idx]
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"parameter path {path!r} does not name a numeric field")
    return steps, obj


def get_by_path(scenario: Scenario, path: str) -> float:
    """Resolve a dotted path to the numeric field it names."""
    return _resolve(scenario, path)[1]


def set_by_path(scenario: Scenario, path: str, value: float) -> Scenario:
    """Return a new scenario with the addressed field replaced.

    Integer fields (e.g. a threshold tau) only accept whole values. Every
    object on the path is rebuilt with `replace`, so its checks run again.
    """
    steps, leaf = _resolve(scenario, path)
    new: Any = float(value)
    if isinstance(leaf, int):
        if not new.is_integer():
            raise ScenarioError(
                f"parameter path {path!r} names an integer field; got {value}"
            )
        new = int(new)
    try:
        for obj, name, idx in reversed(steps):
            if idx is not None:
                items = getattr(obj, name)
                new = items[:idx] + (new,) + items[idx + 1:]
            new = replace(obj, **{name: new})
    except ScenarioError as exc:
        raise ScenarioError(f"parameter path {path!r}: {exc}") from None
    return new


def sweep_parameter(
    scenario: Scenario,
    spec: SweepSpec,
    epsilon: float = 0.0,
) -> list[dict[str, Any]]:
    """Evaluate the requested observables at every grid value.

    Rows are ordered by value and fully recomputed per point, from one
    compile of that point's payoff tables. Only nash_set builds the Nash
    profile list, so only it is subject to the 4M-profile cap.
    """
    observables = set(spec.observables)
    rows = []
    for value in spec.grid():
        s = set_by_path(scenario, spec.parameter_path, value)
        tables = payoff_tables(s)
        row: dict[str, Any] = {"value": value}
        if NASH_OBSERVABLES & observables:
            report = _analyse(s, tables, epsilon, oracle=False)
            if "nash_set" in observables:
                row["nash_set"] = [profile_string(m, s.n) for m, _ in report.nash_masks]
            if "classification" in observables:
                row["classification"] = report.classification.value
            if "welfare_gap" in observables:
                row["welfare_gap"] = report.welfare_gap
        if "flip_margins" in observables:  # against all other wards buffering
            row["flip_margins"] = [tables.gain_to_expose(i, 0) for i in range(s.n)]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection output for a named predicate along one parameter.

    true_at_high records the orientation: the predicate held at the high end
    of the original bracket. analytic_value is the secant root of the flip
    margin through the original bracket's ends, attached when it lies in the
    final bracket (identical effective costs, epsilon 0).
    """

    predicate: str
    critical_value: float
    bracket: tuple[float, float]
    iterations: int
    analytic_value: float | None
    true_at_high: bool


# Read from the payoff tables, which are bit-identical to the is_nash oracle.
PREDICATES: dict[str, Callable[[Scenario, float], bool]] = {
    "all_buffer_nash": lambda s, e: not payoff_tables(s).pole_deviators(False, e),
    "all_buffer_not_nash": lambda s, e: bool(payoff_tables(s).pole_deviators(False, e)),
    "all_expose_nash": lambda s, e: not payoff_tables(s).pole_deviators(True, e),
    "all_expose_not_nash": lambda s, e: bool(payoff_tables(s).pole_deviators(True, e)),
}


def normalize_predicate(name: str) -> str:
    key = re.sub(r"[\s\-]+", "_", name.strip().lower())
    key = re.sub(r"_is_", "_", key)
    if key not in PREDICATES:
        raise ScenarioError(
            f"unknown predicate {name!r}; valid: {sorted(PREDICATES)}"
        )
    return key


def _analytic_threshold(
    scenario: Scenario, path: str, predicate: str, lo: float, hi: float,
    bracket: tuple[float, float],
) -> float | None:
    """Secant root of the relevant flip margin, certified by the bisection.

    The margin is the per-ward expose-minus-buffer gain at the pole profile
    the predicate tests: against all-buffer others for the all-buffer
    predicates (for a symmetric linear game this yields the closed forms
    F* = (c(E) - c(B) - B(1) + B(0)) / p for an observability penalty and
    delta_E* = c(E) - c(B) - B(1) + B(0) + delta_B for an effort delta), and
    against all-expose others for the all-expose predicates (cap* =
    c(B) + B(N) - B(N-1) for a mechanism cap). The root of the secant through
    lo and hi is returned only when it lies in the bisection's final
    `bracket`, where the predicate flips; None otherwise.
    """
    if not is_symmetric(scenario):
        return None
    k_others = 0 if predicate.startswith("all_buffer") else scenario.n - 1

    def margin(v: float) -> float:
        tables = payoff_tables(set_by_path(scenario, path, v))
        return tables.gain_to_expose(0, k_others)

    m_lo, m_hi = margin(lo), margin(hi)
    if m_lo == m_hi:
        return None
    root = lo - m_lo * (hi - lo) / (m_hi - m_lo)
    return root if bracket[0] <= root <= bracket[1] else None


def critical_threshold(
    scenario: Scenario,
    parameter_path: str,
    lo: float,
    hi: float,
    predicate: str,
    epsilon: float = 0.0,
) -> ThresholdResult:
    """Bisect for the parameter value where the predicate flips.

    The predicate must differ at the two ends of the bracket. Bisection
    narrows the bracket to _BISECT_WIDTH, or to two adjacent floats when the
    float spacing there is coarser, and reports its midpoint; the boundary
    itself is evaluated with weak-Nash semantics.
    """
    if not lo < hi:
        raise ScenarioError(f"need lo < hi, got lo={lo}, hi={hi}")
    key = normalize_predicate(predicate)
    pred = PREDICATES[key]

    def at(v: float) -> bool:
        return pred(set_by_path(scenario, parameter_path, v), epsilon)

    p_lo, p_hi = at(lo), at(hi)
    if p_lo == p_hi:
        raise BracketError(
            f"predicate {key!r} is {p_lo} at both ends of [{lo}, {hi}]"
        )
    a, b = lo, hi
    iterations = 0
    while b - a > _BISECT_WIDTH and iterations < _MAX_BISECT_ITERS:
        mid = 0.5 * a + 0.5 * b  # halving first cannot overflow
        if not a < mid < b:
            break  # a and b are adjacent floats: the bracket cannot shrink
        iterations += 1
        if at(mid) == p_lo:
            a = mid
        else:
            b = mid
    analytic = None
    if epsilon == 0.0:
        analytic = _analytic_threshold(scenario, parameter_path, key, lo, hi, (a, b))
    return ThresholdResult(
        critical_value=0.5 * a + 0.5 * b,
        predicate=key,
        bracket=(a, b),
        iterations=iterations,
        analytic_value=analytic,
        true_at_high=p_hi,
    )
