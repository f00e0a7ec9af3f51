"""Parameter sweeps and critical-threshold solving.

A dotted path like "interventions[0].penalty" addresses one numeric field of
a scenario; sweeps re-evaluate the equilibrium analysis across a grid of
values, and the threshold search finds the two adjacent values of the field
between which a named equilibrium predicate flips.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, Iterable

from .errors import BracketError, ScenarioError
from .equilibrium import _analyse
from .equilibrium import is_nash  # noqa: F401  perfbench's tracer test looks it up here
from .interventions import (Observability, PayoffTables, _benefit_fields, _cost_fields,
                            _penalty_fields, payoff_tables)
from .model import Scenario, check_epsilon, profile_string

OBSERVABLES = ("nash_set", "classification", "welfare_gap", "flip_margins")
# the observables that need a Nash analysis of each grid point
NASH_OBSERVABLES = frozenset({"nash_set", "classification", "welfare_gap"})

# Larger grids are refused: every grid point patches the compiled game, and a
# point with a Nash observable runs a full analysis.
MAX_GRID_POINTS = 10**5

_PATH_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")


def _check_bounds(lo: float, hi: float) -> None:
    """Refuse an interval [lo, hi] that is not finite with lo < hi."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioError(f"need finite bounds, got lo={lo}, hi={hi}", ("lo", "hi"))
    if not lo < hi:
        raise ScenarioError(f"need lo < hi, got lo={lo}, hi={hi}", ("lo", "hi"))


def sweep_grid(lo: float, hi: float, steps: int) -> list[float]:
    """`steps` evenly spaced values from lo to hi, both ends included."""
    _check_bounds(lo, hi)
    if not (type(steps) is int and 2 <= steps <= MAX_GRID_POINTS):  # a bool is not a count
        raise ScenarioError(
            f"steps must be an integer in [2, {MAX_GRID_POINTS}], got {steps!r}", ("steps",))
    last = steps - 1
    if math.isfinite((hi - lo) * last):
        return [lo + (hi - lo) * i / last for i in range(steps)]
    # the span or a multiple of it overflows; a weighted mean of lo and hi cannot
    return [lo * (1 - i / last) + hi * (i / last) for i in range(steps)]


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


def _rebuild(steps: list, leaf: Any, path: str, value: float) -> Scenario:
    """set_by_path on what _resolve found for the path."""
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


def set_by_path(scenario: Scenario, path: str, value: float) -> Scenario:
    """Return a new scenario with the addressed field replaced.

    Integer fields (e.g. a threshold tau) only accept whole values. Every
    object on the path is rebuilt with `replace`, so its checks run again.
    """
    return _rebuild(*_resolve(scenario, path), path, value)


def _patcher(scenario: Scenario, path: str) -> tuple[Callable, bool]:
    """set_by_path with the payoff tables of each value, and whether the path
    names an integer field. The first value compiles its game; each later one
    rebuilds only the part its field enters: the benefit vector (benefit.*),
    the penalty vector (an Observability) or the costs and charge (a ward, an
    EffortReduction or a Mechanism)."""
    steps, leaf = _resolve(scenario, path)
    # a numeric leaf lies at least two segments deep, so steps[1] exists
    build = (_benefit_fields if steps[0][1] == "benefit" else
             _penalty_fields if isinstance(steps[1][0], Observability) else _cost_fields)
    tables: PayoffTables | None = None

    def at(value: float) -> tuple[Scenario, PayoffTables]:
        nonlocal tables
        s = _rebuild(steps, leaf, path, value)
        tables = payoff_tables(s) if tables is None else replace(tables, **build(s))
        return s, tables

    return at, isinstance(leaf, int)


def sweep_parameter(
    scenario: Scenario,
    parameter_path: str,
    values: Iterable[float],
    observables: tuple[str, ...] = OBSERVABLES,
    epsilon: float = 0.0,
) -> list[dict[str, Any]]:
    """Evaluate the observables at each value of the field at parameter_path.

    Rows are ordered by value. The game is compiled once, and each point
    rebuilds only the part of it that the swept field enters. An empty or
    over-long value list, an unknown observable and a fraction on an integer
    field are refused before any point is analysed. Only nash_set builds the
    Nash profile list, so only it is subject to the 4M-profile cap.
    """
    check_epsilon(epsilon)
    grid = sorted(float(v) for v in values)
    if not grid:
        raise ScenarioError("sweep values must be non-empty")
    if len(grid) > MAX_GRID_POINTS:
        raise ScenarioError(
            f"{len(grid)} sweep values exceed the cap of {MAX_GRID_POINTS}")
    bad = [o for o in observables if o not in OBSERVABLES]
    if bad:
        raise ScenarioError(f"unknown observables {bad}; valid: {OBSERVABLES}",
                            ("observables",))
    at, integer = _patcher(scenario, parameter_path)
    off = next((v for v in grid if integer and not v.is_integer()), None)
    if off is not None:
        raise ScenarioError(f"parameter path {parameter_path!r} names an integer "
                            f"field, but the grid of {len(grid)} points includes {off}")
    nash = not NASH_OBSERVABLES.isdisjoint(observables)
    rows = []
    plan = names = None
    for value in grid:
        s, tables = at(value)
        row: dict[str, Any] = {"value": value}
        if nash:
            report = _analyse(s, tables, epsilon, oracle=False)
            if "nash_set" in observables:
                if report.nash_plan != plan:  # an equal plan lists the same profiles
                    plan, names = report.nash_plan, [
                        profile_string(m, s.n) for m, _ in report.nash_masks]
                row["nash_set"] = list(names)
            if "classification" in observables:
                row["classification"] = report.classification.value
            if "welfare_gap" in observables:
                row["welfare_gap"] = report.welfare_gap
        if "flip_margins" in observables:  # against all other wards buffering
            row["flip_margins"] = tables.gains(0)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ThresholdResult:
    """Where a named predicate flips along one parameter.

    bracket holds two adjacent values of the parameter (adjacent floats, or
    consecutive integers for an integer field) at which the predicate
    differs, which certifies it; critical_value is its upper end. iterations
    counts the evaluations strictly between the original ends, and
    true_at_high says whether the predicate held at the original high end.
    """

    predicate: str
    critical_value: float
    bracket: tuple[float, float]
    iterations: int
    true_at_high: bool


# Read from compiled payoff tables, which are bit-identical to the is_nash oracle.
PREDICATES: dict[str, Callable[[PayoffTables, float], bool]] = {
    "all_buffer_nash": lambda t, e: not t.pole_deviators(False, e),
    "all_buffer_not_nash": lambda t, e: bool(t.pole_deviators(False, e)),
    "all_expose_nash": lambda t, e: not t.pole_deviators(True, e),
    "all_expose_not_nash": lambda t, e: bool(t.pole_deviators(True, e)),
}


def normalize_predicate(name: str) -> str:
    key = re.sub(r"[\s\-]+", "_", name.strip().lower())
    key = re.sub(r"_is_", "_", key)
    if key not in PREDICATES:
        raise ScenarioError(
            f"unknown predicate {name!r}; valid: {sorted(PREDICATES)}", ("predicate",))
    return key


def _float_key(x: float) -> int:
    """x's rank among the floats: adjacent floats get consecutive keys, and
    both zeros get 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def _key_float(key: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(key)))[0]
    return -x if key < 0 else x


def critical_threshold(
    scenario: Scenario,
    parameter_path: str,
    lo: float,
    hi: float,
    predicate: str,
    epsilon: float = 0.0,
) -> ThresholdResult:
    """The two adjacent parameter values in [lo, hi] where the predicate flips.

    lo and hi must be finite with lo < hi, whole on an integer field, and
    the predicate must differ at them. The search runs over the parameter's values in order (floats by
    bit pattern, or the integers of an integer field): it gallops out from
    a hint until the predicate changes, then bisects. Every step keeps the predicate's value at lo at
    the lower end and its other value at the upper end, so the search ends
    at two adjacent values where the predicate differs, monotone or not.
    Boundaries are evaluated with weak-Nash semantics.
    """
    check_epsilon(epsilon)
    _check_bounds(lo, hi)
    key = normalize_predicate(predicate)
    pred = PREDICATES[key]
    at, integer = _patcher(scenario, parameter_path)
    if integer and not (float(lo).is_integer() and float(hi).is_integer()):
        raise ScenarioError(f"{parameter_path!r} names an integer field; got lo={lo}, hi={hi}",
                            ("lo", "hi"))
    to_key, from_key = (int, float) if integer else (_float_key, _key_float)
    t_lo, t_hi = at(lo)[1], at(hi)[1]
    p_lo, p_hi = pred(t_lo, epsilon), pred(t_hi, epsilon)
    if p_lo == p_hi:
        raise BracketError(
            f"predicate {key!r} is {p_lo} at both ends of [{lo}, {hi}]"
        )
    # A ward's pole margin is positive where it deviates from the pole. The
    # hint is where the secant through its margins at lo and hi crosses 0, for
    # the first ward to deviate or, when some deviate at lo, the last to stop.
    j, sign = (scenario.n - 1, -1.0) if key.startswith("all_expose") else (0, 1.0)
    crossings = []
    for g_lo, g_hi in zip(t_lo.gains(j), t_hi.gains(j)):
        u, w = sign * g_lo - epsilon, sign * g_hi - epsilon
        if (u > 0) != (w > 0):
            crossings.append(u / (u - w))
    f = (max if p_lo == key.endswith("_not_nash") else min)(crossings, default=0.5)
    a, b = to_key(lo), to_key(hi)
    iterations = 0

    def split(k: int) -> bool:
        """Evaluate at k inside the bracket; True when k becomes its lower end."""
        nonlocal a, b, iterations
        iterations += 1
        below = pred(at(from_key(k))[1], epsilon) == p_lo
        a, b = (k, b) if below else (a, k)
        return below

    if b - a > 1:
        up = split(min(max(to_key(lo * (1 - f) + hi * f), a + 1), b - 1))
        step = 1
        # the gallop clamps each probe into the open bracket
        while b - a > 1 and split(min(a + step, b - 1) if up else max(b - step, a + 1)) == up:
            step *= 2
        while b - a > 1:
            split((a + b) // 2)
    return ThresholdResult(
        predicate=key,
        critical_value=from_key(b),
        bracket=(from_key(a), from_key(b)),
        iterations=iterations,
        true_at_high=p_hi,
    )
