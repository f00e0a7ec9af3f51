"""Operator-facing entry point: scenario ingestion, analysis, reports.

Scenario files are strict JSON (unknown keys rejected, errors name the
offending path). Machine artifacts (JSON, CSV, SVG) format numbers with full
round-trip precision and are byte-identical for identical inputs; the
human-readable summary rounds to 12 significant digits.

Exit codes: 0 success, 1 runtime/numerical error, 2 config/schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .dynamics import (
    SCHEDULES,
    TIE_BREAKS,
    DynamicsTrace,
    ReplicatorResult,
    best_response_dynamics,
    integrate_replicator,
)
from .equilibrium import (
    EquilibriumReport,
    FlipReport,
    enumerate_nash,
    flip_conditions,
)
from .errors import BracketError, ScenarioError
from .interventions import (
    EffortReduction,
    Mechanism,
    MechanismMode,
    Observability,
)
from .model import (
    Action,
    ActionProfile,
    ConcaveBenefit,
    LinearBenefit,
    Scenario,
    TableBenefit,
    ThresholdBenefit,
    Ward,
    check_epsilon,
    profile_string,
    validate_scenario,
)
from .sweep import (
    NASH_OBSERVABLES,
    OBSERVABLES,
    ThresholdResult,
    critical_threshold,
    get_by_path,
    sweep_grid,
    sweep_parameter,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# Larger n_wards is refused before any ward is built: no analysis here is
# useful at that size, and the O(N) payoff tables alone grow with it. Parse,
# validate_scenario and payoff_tables of a symmetric document took 0.10-0.14 s
# and 42 MB peak RSS at 10^5 wards, 1.4-1.7 s and 269 MB at 10^6, nearly all
# of it in the tables (2-core x86-64 host, Python 3.11).
MAX_WARDS = 10**5

# Larger scenarios are refused by analyze, report and Nash-observable sweeps
# before any analysis: one Nash analysis is about O(N^2), 0.4 s symmetric and
# 14 s asymmetric at 4096 wards, and report and sweep run one per grid point.
MAX_NASH_WARDS = 4096

# Larger n_wards x (max_iters + 1) is refused by best-response dynamics before
# any move: each CSV row holds an N-letter profile, so 10^8 is ~100 MB of CSV.
MAX_TRACE_CELLS = 10**8

# Larger n_wards x steps is refused by a flip_margins sweep before any point,
# even one that skips MAX_NASH_WARDS: each margin is a float in the rows and
# ~20 bytes of CSV; 10^6 margins peaked at ~110 MB RSS and took 1.6 s (2-core
# x86-64 host, Python 3.11).
MAX_MARGIN_CELLS = 10**7


@dataclass(frozen=True)
class RunOptions:
    """Per-file runtime defaults carried in the scenario document."""

    epsilon: float = 0.0
    rng_seed: int = 0
    dt: float = 0.01
    t_end: float = 50.0
    max_iters: int = 10_000


# ----------------------------------------------------------------------
# Scenario documents (strict): the dataclass fields are the schema
# ----------------------------------------------------------------------

_BENEFIT_KINDS = {
    "linear": LinearBenefit,
    "threshold": ThresholdBenefit,
    "concave": ConcaveBenefit,
    "table": TableBenefit,
}
_INTERVENTION_KINDS = {
    "effort": EffortReduction,
    "observability": Observability,
    "mechanism": Mechanism,
}
_KIND_NAMES = {
    cls: kind for kinds in (_BENEFIT_KINDS, _INTERVENTION_KINDS) for kind, cls in kinds.items()
}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {message}")


def _check_keys(obj: Any, allowed: typing.AbstractSet[str],
                required: typing.AbstractSet[str], path: str) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(obj))
    _require(not missing, path, f"missing required keys {missing}")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Any, path: str) -> float:
    _require(_is_number(v), path, f"expected a number, got {v!r}")
    return float(v)


def _integer(v: Any, path: str) -> int:
    _require(_is_number(v) and isinstance(v, int), path, f"expected an integer, got {v!r}")
    return v


def _numbers(v: Any, path: str) -> tuple[float, ...]:
    _require(isinstance(v, list), path, "expected a list")
    return tuple(_number(x, f"{path}[{i}]") for i, x in enumerate(v))


def _per_ward(v: Any, path: str) -> float | tuple[float, ...]:
    """One number for every ward, or a list of one per ward."""
    if isinstance(v, list):
        return _numbers(v, path)
    _require(_is_number(v), path, f"expected a number or list, got {v!r}")
    return float(v)


def _mode(v: Any, path: str) -> MechanismMode:
    values = [m.value for m in MechanismMode]
    _require(v in values, path, f"expected {' or '.join(map(repr, values))}, got {v!r}")
    return MechanismMode(v)


# how a document value is checked and converted, by the field's annotation;
# list lengths are the scenario's to check
_COERCE: dict[Any, Callable[[Any, str], Any]] = {
    float: _number,
    int: _integer,
    tuple[float, ...]: _numbers,
    float | tuple[float, ...]: _per_ward,
    MechanismMode: _mode,
}


@functools.cache
def _schema(cls: type) -> tuple[tuple, frozenset, frozenset]:
    """((name, coerce) per field in declaration order, allowed keys,
    required keys) of the document form of `cls`.

    A class with a kind also takes `kind`. A field is required when it has
    no default, or when its metadata says that documents must give it.
    """
    hints = typing.get_type_hints(cls)
    doc = fields(cls)
    required = {f.name for f in doc if f.metadata.get("required")
                or (f.default is MISSING and f.default_factory is MISSING)}
    allowed = {f.name for f in doc} | ({"kind"} if cls in _KIND_NAMES else set())
    coerce = tuple((f.name, _COERCE[hints[f.name]]) for f in doc)
    return coerce, frozenset(allowed), frozenset(required)


def _field_values(cls: type, obj: Any, path: str) -> dict:
    """Checked constructor arguments of `cls` from a document object."""
    coerce, allowed, required = _schema(cls)
    _check_keys(obj, allowed, required, path)
    return {k: conv(obj[k], f"{path}.{k}") for k, conv in coerce if k in obj}


def _build(make: Callable[..., Any], source: str | dict[str, str], **kwargs: Any) -> Any:
    """make(**kwargs). A check it fails names `source`, a path or flag, or,
    from a map of argument names to those, the sources of the arguments it
    refused; a refusal that names no mapped argument passes through as it is."""
    try:
        return make(**kwargs)
    except ScenarioError as exc:
        if isinstance(source, dict):
            source = " / ".join(dict.fromkeys(source[n] for n in exc.names if n in source))
        if not source:
            raise
        raise ScenarioError(f"{source}: {exc}") from None


def _parse_kind(kinds: dict[str, type], obj: Any, path: str) -> Any:
    _require(isinstance(obj, dict), path, "expected an object")
    kind = obj.get("kind")
    ok = isinstance(kind, str) and kind in kinds
    _require(ok, f"{path}.kind", f"expected one of {'/'.join(kinds)}, got {kind!r}")
    return _parse(kinds[kind], obj, path)


def _parse(cls: type, obj: Any, path: str) -> Any:
    """A `cls` from a document object; every refusal names `path` or a path below it."""
    return _build(cls, path, **_field_values(cls, obj, path))


def _parse_wards(spec: Any, n: int) -> tuple[Ward, ...]:
    """The shorthand's one ward n times, or a list of n wards."""
    if isinstance(spec, dict):
        _check_keys(spec, {"symmetric"}, {"symmetric"}, "wards")
        return (_parse(Ward, spec["symmetric"], "wards.symmetric"),) * n
    _require(isinstance(spec, list), "wards", "expected an object or a list")
    _require(
        len(spec) == n, "wards", f"expected {n} entries (n_wards), got {len(spec)}"
    )
    return tuple(_parse(Ward, w, f"wards[{i}]") for i, w in enumerate(spec))


def parse_scenario_document(doc: dict) -> tuple[Scenario, RunOptions]:
    """Validate a parsed JSON document into a Scenario plus run options."""
    _check_keys(
        doc,
        {"n_wards", "wards", "benefit", "interventions", "options"},
        {"n_wards", "wards", "benefit"},
        "document",
    )
    n = _integer(doc["n_wards"], "document.n_wards")
    _require(n >= 2, "n_wards", f"need at least 2 wards, got {n}")
    _require(n <= MAX_WARDS, "n_wards", f"at most {MAX_WARDS} wards are supported, got {n}")
    wards = _parse_wards(doc["wards"], n)
    benefit = _parse_kind(_BENEFIT_KINDS, doc["benefit"], "benefit")
    ivs_doc = doc.get("interventions", [])
    _require(isinstance(ivs_doc, list), "interventions", "expected a list")
    interventions = tuple(
        _parse_kind(_INTERVENTION_KINDS, iv, f"interventions[{i}]")
        for i, iv in enumerate(ivs_doc)
    )
    # Scenario's own refusals name their document paths
    scenario = Scenario(wards=wards, benefit=benefit, interventions=interventions)
    options = RunOptions(**_field_values(RunOptions, doc.get("options", {}), "options"))
    _build(check_epsilon, "options.epsilon", epsilon=options.epsilon)
    dt, t_end, max_iters = options.dt, options.t_end, options.max_iters
    _require(math.isfinite(dt) and dt > 0, "options.dt",
             f"expected a finite number > 0, got {dt!r}")
    _require(math.isfinite(t_end) and t_end >= 0, "options.t_end",
             f"expected a finite number >= 0, got {t_end!r}")
    _require(max_iters >= 1, "options.max_iters", f"expected an integer >= 1, got {max_iters!r}")
    return scenario, options


def load_scenario_document(path: str | Path) -> tuple[Scenario, RunOptions]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return parse_scenario_document(doc)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file, ignoring its options block."""
    return load_scenario_document(path)[0]


def _document(obj: Any) -> dict:
    """The fields of `obj` in declaration order, led by its kind if it has
    one; tuples become lists and enums their values."""
    cls = type(obj)
    out: dict[str, Any] = {"kind": _KIND_NAMES[cls]} if cls in _KIND_NAMES else {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, tuple):
            v = list(v)
        elif isinstance(v, Enum):
            v = v.value
        out[f.name] = v
    return out


def scenario_to_dict(scenario: Scenario, options: RunOptions | None = None) -> dict:
    """Resolved, round-trippable document form of a scenario."""
    out: dict[str, Any] = {
        "n_wards": scenario.n,
        "wards": [_document(w) for w in scenario.wards],
        "benefit": _document(scenario.benefit),
        "interventions": [_document(iv) for iv in scenario.interventions],
    }
    if options is not None:
        out["options"] = _document(options)
    return out


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------


def _disp(x: float | None) -> str:
    """Human display: 12 significant digits (machine outputs keep full repr)."""
    if x is None:
        return "n/a"
    return format(x, ".12g")


def equilibrium_report_dict(report: EquilibriumReport) -> dict:
    return {
        "nash_profiles": [
            {"profile": profile_string(m, report.n), "strict": s}
            for m, s in report.nash_masks
        ],
        "dominant_strategy": [
            a.value if a is not None else None for a in report.dominant_strategy
        ],
        "classification": report.classification.value,
        "welfare_optimum": {
            "profile": str(report.welfare_optimum[0]),
            "welfare": report.welfare_optimum[1],
        },
        "welfare_gap": report.welfare_gap,
    }


def flip_report_dict(report: FlipReport) -> dict:
    return {
        "wards": [_document(w) for w in report.wards],
        "blocking_wards": sorted(report.blocking_wards),
    }


def analyze_report_dict(
    scenario: Scenario,
    options: RunOptions,
    warnings: list[str],
    eq: EquilibriumReport,
    flip: FlipReport,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario, options),
        "warnings": warnings,
        "equilibrium": equilibrium_report_dict(eq),
        "flip": flip_report_dict(flip),
    }


def threshold_result_dict(
    result: ThresholdResult, scenario: Scenario, options: RunOptions, path: str
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario, options),
        "parameter_path": path,
        **_document(result),
    }


def format_analysis_text(
    scenario: Scenario, eq: EquilibriumReport, flip: FlipReport
) -> str:
    lines = []
    lines.append(
        f"Scenario: {scenario.n} wards, benefit={type(scenario.benefit).__name__}, "
        f"{len(scenario.interventions)} intervention(s)"
    )
    lines.append(f"Nash equilibria ({eq.nash_count}):")
    for m, strict in eq.nash_masks:
        lines.append(f"  {profile_string(m, eq.n)}  {'strict' if strict else 'weak'}")
    if not eq.nash_count:
        lines.append("  (none in pure strategies)")
    dom = ", ".join(
        f"ward {i}: {a.value if a else '-'}" for i, a in enumerate(eq.dominant_strategy)
    )
    lines.append(f"Strictly dominant actions: {dom}")
    lines.append(f"Classification: {eq.classification.value}")
    opt_p, opt_w = eq.welfare_optimum
    lines.append(f"Welfare optimum: {opt_p}  welfare={_disp(opt_w)}")
    if eq.welfare_gap is not None:
        best_nash = opt_w - eq.welfare_gap
        lines.append(
            f"Best Nash welfare: {_disp(best_nash)}  welfare_gap {_disp(eq.welfare_gap)}"
        )
    else:
        lines.append("Best Nash welfare: n/a (no pure Nash)  welfare_gap n/a")
    lines.append(
        "Flip margins per ward (expose minus buffer against all-buffer others):"
    )
    for w in flip.wards:
        lines.append(
            f"  ward {w.ward}: baseline={_disp(w.baseline_margin)}"
            f" effort={_disp(w.effort_margin)}"
            f" observability={_disp(w.observability_margin)}"
            f" mechanism={_disp(w.mechanism_margin)}"
        )
    blocking = ", ".join(str(i) for i in sorted(flip.blocking_wards)) or "none"
    lines.append(f"Blocking wards (profitable deviation from all-expose): {blocking}")
    return "\n".join(lines) + "\n"


def _dump_json(obj: dict) -> str:
    """json.dumps(obj, indent=2, allow_nan=False) plus a newline, byte for
    byte, for documents with string keys. json takes its pure-Python encoder
    whenever there is an indent; here the C encoder writes each container of
    scalars, with the line break and indent of its items as the separator."""
    try:
        return _indented(obj, "\n") + "\n"
    except ValueError:  # a float out of range: the stdlib's own message
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@functools.lru_cache(maxsize=None)
def _flat_encoder(item_separator: str) -> Callable[[Any], str]:
    return json.JSONEncoder(allow_nan=False, separators=(item_separator, ": ")).encode


def _is_flat(obj: Any) -> bool:
    """A scalar or an empty container: written alike at every depth."""
    return not (obj and isinstance(obj, (dict, list, tuple)))


def _indented(obj: Any, newline: str) -> str:
    """obj as json.dumps(indent=2) writes it at the depth of `newline`."""
    if _is_flat(obj):
        return _flat_encoder("")(obj)
    inner = newline + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if all(map(_is_flat, values)):
        text = _flat_encoder("," + inner)(obj)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    deeper = inner + "  "
    if all(isinstance(v, dict) and v and all(map(_is_flat, v.values())) for v in obj):
        # a list of flat records in one call: an encoded string holds no raw
        # line break, so "}" + separator + "{" only ever joins two records
        text = _flat_encoder("," + deeper)(obj)[2:-2].replace(
            "}," + deeper + "{", inner + "}," + inner + "{" + deeper)
        return "[" + inner + "{" + deeper + text + inner + "}" + newline + "]"
    items = [_indented(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def trace_to_csv(trace: DynamicsTrace) -> str:
    # no cell needs CSV quoting: ints, E/B strings and float reprs
    n, moves = len(trace.initial), [("", 0.0), *trace.moves]
    rows = (
        f"{i},{profile_string(mask, n)},{ward},{delta!r}\n"
        for i, (mask, (ward, delta)) in enumerate(zip(trace.masks(), moves))
    )
    return "step,profile,mover,payoff_delta\n" + "".join(rows)


def replicator_to_csv(result: ReplicatorResult) -> str:
    return "t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in result.trajectory)


def sweep_rows_to_csv(rows: list[dict], observables: tuple[str, ...], n: int) -> str:
    # no cell needs CSV quoting: float reprs, E/B strings, class names, gaps
    header = ["value"]
    for obs in observables:
        if obs == "flip_margins":
            header.extend(f"margin_ward_{i}" for i in range(n))
        else:
            header.append(obs)
    lines = [",".join(header)]
    for row in rows:
        cells: list[str] = [repr(row["value"])]
        for obs in observables:
            if obs == "nash_set":
                cells.append(";".join(row["nash_set"]))
            elif obs == "classification":
                cells.append(row["classification"])
            elif obs == "welfare_gap":
                gap = row["welfare_gap"]
                cells.append("" if gap is None else repr(gap))
            elif obs == "flip_margins":
                cells.extend(repr(m) for m in row["flip_margins"])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# SVG chart (deterministic text output)
# ----------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_SVG_PAD = 50.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def margin_chart_svg(title: str, values: list[float], margins: list[list[float]]) -> str:
    """Line chart of per-ward flip margins against the swept parameter."""
    xs = values
    ys = [m for row in margins for m in row]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> str:
        return f"{_SVG_PAD + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _SVG_PAD):.2f}"

    def py(y: float) -> str:
        return f"{_SVG_H - _SVG_PAD - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _SVG_PAD):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    axis = (
        f'<line x1="{px(x_lo)}" y1="{py(y_lo)}" x2="{px(x_hi)}" y2="{py(y_lo)}" '
        'stroke="black" stroke-width="1"/>'
        f'<line x1="{px(x_lo)}" y1="{py(y_lo)}" x2="{px(x_lo)}" y2="{py(y_hi)}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(axis)
    if y_lo < 0.0 < y_hi:
        parts.append(
            f'<line x1="{px(x_lo)}" y1="{py(0.0)}" x2="{px(x_hi)}" y2="{py(0.0)}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for label, x in ((f"{x_lo:.6g}", x_lo), (f"{x_hi:.6g}", x_hi)):
        parts.append(
            f'<text x="{px(x)}" y="{_SVG_H - _SVG_PAD + 18:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    for label, y in ((f"{y_lo:.6g}", y_lo), (f"{y_hi:.6g}", y_hi)):
        parts.append(
            f'<text x="{_SVG_PAD - 6:.2f}" y="{py(y)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
    x_px = [px(x) for x in xs]
    lines: dict[tuple[float, ...], str] = {}  # wards with equal margins share one
    for w, column in enumerate(zip(*margins)):
        pts = lines.get(column)
        if pts is None:
            pts = lines[column] = " ".join(f"{x},{py(y)}" for x, y in zip(x_px, column))
        color = _PALETTE[w % len(_PALETTE)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_SVG_W - _SVG_PAD + 4:.2f}" y="{py(margins[-1][w])}" '
            f'font-family="monospace" font-size="10" fill="{color}">w{w}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _load_with_diagnostics(path: str) -> tuple[Scenario, RunOptions, list[str]]:
    scenario, options = load_scenario_document(path)
    warnings = validate_scenario(scenario)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return scenario, options, warnings


def _require_nash_size(scenario: Scenario) -> None:
    _require(scenario.n <= MAX_NASH_WARDS, "n_wards", f"Nash analysis supports at most "
             f"{MAX_NASH_WARDS} wards, got {scenario.n}: each analysis costs O(N^2)")


def _setting(args: argparse.Namespace, options: RunOptions, name: str) -> tuple[Any, str]:
    """(value, source) of a run setting: its flag if given, else its option."""
    if getattr(args, name) is None:
        return getattr(options, name), f"options.{name}"
    return getattr(args, name), "--" + name.replace("_", "-")


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario, options, warnings = _load_with_diagnostics(args.scenario)
    _require_nash_size(scenario)
    epsilon, eps_path = _setting(args, options, "epsilon")
    eq = _build(enumerate_nash, {"epsilon": eps_path}, scenario=scenario, epsilon=epsilon)
    flip = flip_conditions(scenario, epsilon=epsilon)
    sys.stdout.write(format_analysis_text(scenario, eq, flip))
    if args.out:
        report = analyze_report_dict(scenario, options, warnings, eq, flip)
        Path(args.out).write_text(_dump_json(report))
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    scenario, options, _ = _load_with_diagnostics(args.scenario)
    if args.replicator:
        try:
            x0 = float(args.initial)
        except ValueError:
            raise ScenarioError(f"--initial: expected a number with --replicator, "
                                f"got {args.initial!r}") from None
        t_end, t_path = _setting(args, options, "t_end")
        dt, dt_path = _setting(args, options, "dt")
        result = _build(integrate_replicator, {"x0": "--initial", "t_end": t_path, "dt": dt_path},
                        scenario=scenario, x0=x0, t_end=t_end, dt=dt)
        _write_output(replicator_to_csv(result), args.out)
        for fp in result.fixed_points:
            print(
                f"fixed point x={_disp(fp.x)} ({fp.stability.value})", file=sys.stderr
            )
        for b in result.basins:
            print(
                f"basin [{_disp(b.lo)}, {_disp(b.hi)}] -> {_disp(b.attractor)}",
                file=sys.stderr,
            )
        return EXIT_OK
    profile = _build(ActionProfile.from_string, "--initial", text=args.initial)
    max_iters, iters_path = _setting(args, options, "max_iters")
    _require(scenario.n * (max_iters + 1) <= MAX_TRACE_CELLS, iters_path,
             f"{scenario.n} wards x ({max_iters} + 1) trace rows exceed "
             f"{MAX_TRACE_CELLS} CSV cells")
    epsilon, eps_path = _setting(args, options, "epsilon")
    seed = args.seed if args.seed is not None else options.rng_seed
    trace = _build(
        best_response_dynamics,
        {"initial": "--initial", "max_iters": iters_path, "epsilon": eps_path},
        scenario=scenario,
        initial=profile,
        schedule=args.schedule,
        max_iters=max_iters,
        tie_break=args.tie_break,
        seed=seed,
        epsilon=epsilon,
    )
    _write_output(trace_to_csv(trace), args.out)
    print(
        f"terminal: {trace.terminal.value} after {trace.iterations} move(s)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, options, _ = _load_with_diagnostics(args.scenario)
    epsilon, eps_path = _setting(args, options, "epsilon")
    flags = {"lo": "--lo/--hi", "hi": "--lo/--hi", "steps": "--steps", "epsilon": eps_path,
             "predicate": "--predicate", "observables": "--observables"}
    if args.critical:
        if not args.predicate:
            raise ScenarioError("--critical requires --predicate")
        result = _build(critical_threshold, flags, scenario=scenario, parameter_path=args.path,
                        lo=args.lo, hi=args.hi, predicate=args.predicate, epsilon=epsilon)
        doc = threshold_result_dict(result, scenario, options, args.path)
        _write_output(_dump_json(doc), args.out)
        return EXIT_OK
    grid = _build(sweep_grid, flags, lo=args.lo, hi=args.hi, steps=args.steps)
    observables = tuple(args.observables.split(","))
    if NASH_OBSERVABLES & set(observables):
        _require_nash_size(scenario)
    if "flip_margins" in observables:
        _require(scenario.n * args.steps <= MAX_MARGIN_CELLS, "--steps",
                 f"{scenario.n} wards x {args.steps} grid points exceed "
                 f"{MAX_MARGIN_CELLS} flip-margin cells")
    if isinstance(get_by_path(scenario, args.path), int):  # such as benefit.tau
        _require(args.lo.is_integer() and args.hi.is_integer(), "--lo/--hi",
                 f"{args.path!r} names an integer field; got lo={args.lo}, hi={args.hi}")
        off = next((v for v in grid if not v.is_integer()), None)
        _require(off is None, "--steps",
                 f"{args.path!r} names an integer field, but {args.steps} points over "
                 f"[{args.lo}, {args.hi}] include {off}; steps - 1 must divide hi - lo")
    rows = _build(sweep_parameter, flags, scenario=scenario, parameter_path=args.path,
                  values=grid, observables=observables, epsilon=epsilon)
    _write_output(sweep_rows_to_csv(rows, observables, scenario.n), args.out)
    return EXIT_OK


# per archetype: the field swept, its bracket [0, scale * max c(E)], the threshold predicate
_CANONICAL_SWEEPS = {
    EffortReduction: ("delta_expose", 2.0, "all_buffer_not_nash"),
    Observability: ("penalty", 4.0, "all_buffer_not_nash"),
    Mechanism: ("capped_cost_expose", 1.0, "all_expose_nash"),
}


def _canonical_sweeps(scenario: Scenario) -> list[tuple[int, str, str, float, float, str]]:
    """(index, kind, parameter path, lo, hi, predicate) per sweepable intervention."""
    max_ce = max(w.cost_expose for w in scenario.wards)
    out = []
    for i, iv in enumerate(scenario.interventions):
        per_ward = isinstance(iv, Mechanism) and isinstance(iv.capped_cost_expose, tuple)
        if per_ward or max_ce == 0:
            why = "per-ward caps" if per_ward else "every cost_expose is 0: bracket [0, 0]"
            print(f"note: skipping canonical sweep for interventions[{i}] ({why})",
                  file=sys.stderr)
            continue
        name, scale, predicate = _CANONICAL_SWEEPS[type(iv)]
        path = f"interventions[{i}].{name}"
        out.append((i, _KIND_NAMES[type(iv)], path, 0.0, scale * max_ce, predicate))
    return out


def cmd_report(args: argparse.Namespace) -> int:
    scenario, options, warnings = _load_with_diagnostics(args.scenario)
    _require_nash_size(scenario)
    epsilon = options.epsilon
    bundle = Path(args.bundle)
    bundle.mkdir(parents=True, exist_ok=True)
    eq = enumerate_nash(scenario, epsilon=epsilon)
    flip = flip_conditions(scenario, epsilon=epsilon)
    (bundle / "analyze.json").write_text(
        _dump_json(analyze_report_dict(scenario, options, warnings, eq, flip))
    )
    sys.stdout.write(format_analysis_text(scenario, eq, flip))
    for idx, kind, path, lo, hi, predicate in _canonical_sweeps(scenario):
        rows = sweep_parameter(scenario, path, sweep_grid(lo, hi, 21), epsilon=epsilon)
        stem = f"{idx}_{kind}"
        (bundle / f"sweep_{stem}.csv").write_text(
            sweep_rows_to_csv(rows, OBSERVABLES, scenario.n)
        )
        values = [row["value"] for row in rows]
        margins = [row["flip_margins"] for row in rows]
        (bundle / f"margin_{stem}.svg").write_text(
            margin_chart_svg(f"{kind}: margin vs {path}", values, margins)
        )
        try:
            result = critical_threshold(
                scenario, path, lo, hi, predicate, epsilon=epsilon
            )
        except BracketError as exc:  # no flip inside the canonical bracket
            print(f"note: no threshold for {path}: {exc}", file=sys.stderr)
            continue
        (bundle / f"threshold_{stem}.json").write_text(
            _dump_json(threshold_result_dict(result, scenario, options, path))
        )
        print(
            f"threshold {path} [{predicate}]: {_disp(result.critical_value)}",
            file=sys.stdout,
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------


@functools.cache  # each build costs ~1 ms and leaves cycles only gc frees
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wardgames",
        description="Equilibrium analysis of the inpatient capacity-signalling game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="Nash set, flip conditions, welfare gap")
    p.add_argument("scenario")
    p.add_argument("--out", help="also write a JSON report here")
    p.add_argument("--epsilon", type=float, default=None, help="tie tolerance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dynamics", help="best-response or replicator dynamics")
    p.add_argument("scenario")
    p.add_argument(
        "--initial", required=True, help="profile string like EBBB, or x0 with --replicator"
    )
    p.add_argument("--replicator", action="store_true")
    p.add_argument("--schedule", choices=SCHEDULES, default="round_robin")
    p.add_argument("--tie-break", choices=TIE_BREAKS, default="stay")
    p.add_argument("--seed", type=int, default=None, help="seed for the random schedule")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sweep", help="grid sweep or critical threshold")
    p.add_argument("scenario")
    p.add_argument("--path", required=True, help="e.g. interventions[0].penalty")
    p.add_argument("--lo", type=float, required=True,
                   help="lower bound; write a negative one like -1e-3 as --lo=-1e-3")
    p.add_argument("--hi", type=float, required=True,
                   help="upper bound; write a negative one like -1e-3 as --hi=-1e-3")
    p.add_argument("--steps", type=int, default=11)
    p.add_argument(
        "--observables",
        default=",".join(OBSERVABLES),
        help="comma-separated subset of " + ",".join(OBSERVABLES),
    )
    p.add_argument("--critical", action="store_true", help="find the threshold instead")
    p.add_argument("--predicate", default=None, help="e.g. all_buffer_not_nash")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="analysis bundle with canonical sweeps and charts")
    p.add_argument("scenario")
    p.add_argument("--bundle", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
