"""Operator-facing entry point: scenario ingestion, analysis, reports.

Scenario files are strict JSON (unknown keys rejected, errors name the
offending path). Machine artifacts (JSON, CSV, SVG) format numbers with full
round-trip precision and are byte-identical for identical inputs; the
human-readable summary rounds to 12 significant digits.

Exit codes: 0 success, 1 runtime/numerical error, 2 config/schema error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .dynamics import (
    MAX_RK4_STEPS,
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
    Intervention,
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
    validate_scenario,
)
from .sweep import (
    MAX_GRID_POINTS,
    SweepSpec,
    ThresholdResult,
    critical_threshold,
    sweep_parameter,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class RunOptions:
    """Per-file runtime defaults carried in the scenario document."""

    epsilon: float = 0.0
    rng_seed: int = 0
    dt: float = 0.01
    t_end: float = 50.0
    max_iters: int = 10_000


# ----------------------------------------------------------------------
# Scenario file parsing (strict)
# ----------------------------------------------------------------------


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {message}")


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(obj))
    _require(not missing, path, f"missing required keys {missing}")


def _number(obj: dict, key: str, path: str) -> float:
    v = obj[key]
    _require(
        isinstance(v, (int, float)) and not isinstance(v, bool),
        f"{path}.{key}",
        f"expected a number, got {v!r}",
    )
    return float(v)


def _integer(obj: dict, key: str, path: str) -> int:
    v = obj[key]
    _require(
        isinstance(v, int) and not isinstance(v, bool),
        f"{path}.{key}",
        f"expected an integer, got {v!r}",
    )
    return v


def _nonnegative(value: float, path: str) -> float:
    _require(
        math.isfinite(value) and value >= 0,
        path,
        f"expected a finite number >= 0, got {value!r}",
    )
    return value


def _positive(value: float, path: str) -> float:
    _require(
        math.isfinite(value) and value > 0,
        path,
        f"expected a finite number > 0, got {value!r}",
    )
    return value


def _parse_wards(doc: dict, n: int) -> tuple[Ward, ...]:
    spec = doc["wards"]
    if isinstance(spec, dict):
        _check_keys(spec, {"symmetric"}, {"symmetric"}, "wards")
        sym = spec["symmetric"]
        _check_keys(
            sym, {"cost_expose", "cost_buffer"}, {"cost_expose", "cost_buffer"},
            "wards.symmetric",
        )
        ce = _number(sym, "cost_expose", "wards.symmetric")
        cb = _number(sym, "cost_buffer", "wards.symmetric")
        return tuple(Ward(i, ce, cb) for i in range(n))
    _require(isinstance(spec, list), "wards", "expected an object or a list")
    _require(
        len(spec) == n, "wards", f"expected {n} entries (n_wards), got {len(spec)}"
    )
    wards = []
    for i, w in enumerate(spec):
        path = f"wards[{i}]"
        _check_keys(
            w, {"cost_expose", "cost_buffer"}, {"cost_expose", "cost_buffer"}, path
        )
        wards.append(Ward(i, _number(w, "cost_expose", path), _number(w, "cost_buffer", path)))
    return tuple(wards)


def _parse_benefit(doc: dict, n: int) -> Any:
    b = doc["benefit"]
    _require(isinstance(b, dict), "benefit", "expected an object")
    kind = b.get("kind")
    if kind == "linear":
        _check_keys(b, {"kind", "beta_per_exposer"}, {"kind", "beta_per_exposer"}, "benefit")
        return LinearBenefit(_number(b, "beta_per_exposer", "benefit"))
    if kind == "threshold":
        _check_keys(b, {"kind", "tau", "beta"}, {"kind", "tau", "beta"}, "benefit")
        return ThresholdBenefit(_integer(b, "tau", "benefit"), _number(b, "beta", "benefit"))
    if kind == "concave":
        _check_keys(b, {"kind", "beta", "gamma"}, {"kind", "beta", "gamma"}, "benefit")
        return ConcaveBenefit(_number(b, "beta", "benefit"), _number(b, "gamma", "benefit"))
    if kind == "table":
        _check_keys(b, {"kind", "values"}, {"kind", "values"}, "benefit")
        vals = b["values"]
        _require(isinstance(vals, list), "benefit.values", "expected a list")
        _require(
            len(vals) == n + 1,
            "benefit.values",
            f"expected exactly {n + 1} entries for {n} wards, got {len(vals)}",
        )
        for i, v in enumerate(vals):
            _require(
                isinstance(v, (int, float)) and not isinstance(v, bool),
                f"benefit.values[{i}]",
                f"expected a number, got {v!r}",
            )
        return TableBenefit(tuple(float(v) for v in vals))
    raise ScenarioError(
        f"benefit.kind: expected one of linear/threshold/concave/table, got {kind!r}"
    )


def _parse_intervention(iv: dict, idx: int, n: int) -> Intervention:
    path = f"interventions[{idx}]"
    _require(isinstance(iv, dict), path, "expected an object")
    kind = iv.get("kind")
    if kind == "effort":
        _check_keys(iv, {"kind", "delta_expose", "delta_buffer"}, {"kind"}, path)
        return EffortReduction(
            delta_expose=_number(iv, "delta_expose", path) if "delta_expose" in iv else 0.0,
            delta_buffer=_number(iv, "delta_buffer", path) if "delta_buffer" in iv else 0.0,
        )
    if kind == "observability":
        _check_keys(iv, {"kind", "p0", "p_slope", "penalty"}, {"kind", "p0", "penalty"}, path)
        return Observability(
            p0=_number(iv, "p0", path),
            p_slope=_number(iv, "p_slope", path) if "p_slope" in iv else 0.0,
            penalty=_number(iv, "penalty", path),
        )
    if kind == "mechanism":
        _check_keys(
            iv, {"kind", "capped_cost_expose", "mode"}, {"kind", "capped_cost_expose"}, path
        )
        caps = iv["capped_cost_expose"]
        if isinstance(caps, list):
            _require(
                len(caps) == n,
                f"{path}.capped_cost_expose",
                f"expected {n} per-ward entries, got {len(caps)}",
            )
            for i, v in enumerate(caps):
                _require(
                    isinstance(v, (int, float)) and not isinstance(v, bool),
                    f"{path}.capped_cost_expose[{i}]",
                    f"expected a number, got {v!r}",
                )
            caps_val: Any = tuple(float(v) for v in caps)
        else:
            _require(
                isinstance(caps, (int, float)) and not isinstance(caps, bool),
                f"{path}.capped_cost_expose",
                f"expected a number or list, got {caps!r}",
            )
            caps_val = float(caps)
        mode = iv.get("mode", "absorb")
        _require(
            mode in ("absorb", "redistribute"),
            f"{path}.mode",
            f"expected 'absorb' or 'redistribute', got {mode!r}",
        )
        return Mechanism(capped_cost_expose=caps_val, mode=MechanismMode(mode))
    raise ScenarioError(
        f"{path}.kind: expected one of effort/observability/mechanism, got {kind!r}"
    )


def _parse_options(doc: dict) -> RunOptions:
    if "options" not in doc:
        return RunOptions()
    o = doc["options"]
    allowed = {"epsilon", "rng_seed", "dt", "t_end", "max_iters"}
    _check_keys(o, allowed, set(), "options")
    kwargs: dict[str, Any] = {}
    if "epsilon" in o:
        kwargs["epsilon"] = _nonnegative(
            _number(o, "epsilon", "options"), "options.epsilon"
        )
    if "rng_seed" in o:
        kwargs["rng_seed"] = _integer(o, "rng_seed", "options")
    if "dt" in o:
        kwargs["dt"] = _positive(_number(o, "dt", "options"), "options.dt")
    if "t_end" in o:
        kwargs["t_end"] = _nonnegative(_number(o, "t_end", "options"), "options.t_end")
    if "max_iters" in o:
        kwargs["max_iters"] = _integer(o, "max_iters", "options")
    return RunOptions(**kwargs)


def parse_scenario_document(doc: dict) -> tuple[Scenario, RunOptions]:
    """Validate a parsed JSON document into a Scenario plus run options."""
    _check_keys(
        doc,
        {"n_wards", "wards", "benefit", "interventions", "options"},
        {"n_wards", "wards", "benefit"},
        "document",
    )
    n = _integer(doc, "n_wards", "document")
    _require(n >= 2, "n_wards", f"need at least 2 wards, got {n}")
    wards = _parse_wards(doc, n)
    benefit = _parse_benefit(doc, n)
    ivs_doc = doc.get("interventions", [])
    _require(isinstance(ivs_doc, list), "interventions", "expected a list")
    interventions = tuple(
        _parse_intervention(iv, i, n) for i, iv in enumerate(ivs_doc)
    )
    scenario = Scenario(wards=wards, benefit=benefit, interventions=interventions)
    return scenario, _parse_options(doc)


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


def scenario_to_dict(scenario: Scenario, options: RunOptions | None = None) -> dict:
    """Resolved, round-trippable document form of a scenario."""
    out: dict[str, Any] = {
        "n_wards": scenario.n,
        "wards": [
            {"cost_expose": w.cost_expose, "cost_buffer": w.cost_buffer}
            for w in scenario.wards
        ],
    }
    b = scenario.benefit
    if isinstance(b, LinearBenefit):
        out["benefit"] = {"kind": "linear", "beta_per_exposer": b.beta_per_exposer}
    elif isinstance(b, ThresholdBenefit):
        out["benefit"] = {"kind": "threshold", "tau": b.tau, "beta": b.beta}
    elif isinstance(b, ConcaveBenefit):
        out["benefit"] = {"kind": "concave", "beta": b.beta, "gamma": b.gamma}
    else:
        assert isinstance(b, TableBenefit)
        out["benefit"] = {"kind": "table", "values": list(b.values)}
    ivs = []
    for iv in scenario.interventions:
        if isinstance(iv, EffortReduction):
            ivs.append(
                {
                    "kind": "effort",
                    "delta_expose": iv.delta_expose,
                    "delta_buffer": iv.delta_buffer,
                }
            )
        elif isinstance(iv, Observability):
            ivs.append(
                {
                    "kind": "observability",
                    "p0": iv.p0,
                    "p_slope": iv.p_slope,
                    "penalty": iv.penalty,
                }
            )
        else:
            assert isinstance(iv, Mechanism)
            caps = iv.capped_cost_expose
            ivs.append(
                {
                    "kind": "mechanism",
                    "capped_cost_expose": list(caps) if isinstance(caps, tuple) else caps,
                    "mode": iv.mode.value,
                }
            )
    out["interventions"] = ivs
    if options is not None:
        out["options"] = {
            "epsilon": options.epsilon,
            "rng_seed": options.rng_seed,
            "dt": options.dt,
            "t_end": options.t_end,
            "max_iters": options.max_iters,
        }
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
            {"profile": str(p), "strict": s} for p, s in report.nash_profiles
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
        "wards": [
            {
                "ward": w.ward,
                "baseline_margin": w.baseline_margin,
                "baseline_buffer_best": w.baseline_buffer_best,
                "effort_margin": w.effort_margin,
                "effort_buffer_holds": w.effort_buffer_holds,
                "observability_margin": w.observability_margin,
                "observability_buffer_holds": w.observability_buffer_holds,
                "mechanism_margin": w.mechanism_margin,
                "mechanism_expose_holds": w.mechanism_expose_holds,
            }
            for w in report.wards
        ],
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
        "predicate": result.predicate,
        "critical_value": result.critical_value,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "analytic_value": result.analytic_value,
        "true_at_high": result.true_at_high,
    }


def format_analysis_text(
    scenario: Scenario, eq: EquilibriumReport, flip: FlipReport
) -> str:
    lines = []
    lines.append(
        f"Scenario: {scenario.n} wards, benefit={type(scenario.benefit).__name__}, "
        f"{len(scenario.interventions)} intervention(s)"
    )
    lines.append(f"Nash equilibria ({len(eq.nash_profiles)}):")
    for p, strict in eq.nash_profiles:
        lines.append(f"  {p}  {'strict' if strict else 'weak'}")
    if not eq.nash_profiles:
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
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def trace_to_csv(trace: DynamicsTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "profile", "mover", "payoff_delta"])
    for i, step in enumerate(trace.steps):
        writer.writerow(
            [
                i,
                str(step.profile),
                "" if step.mover is None else step.mover,
                repr(step.payoff_delta),
            ]
        )
    return buf.getvalue()


def replicator_to_csv(result: ReplicatorResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x"])
    for t, x in result.trajectory:
        writer.writerow([repr(t), repr(x)])
    return buf.getvalue()


def sweep_rows_to_csv(rows: list[dict], observables: tuple[str, ...], n: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["value"]
    for obs in observables:
        if obs == "flip_margins":
            header.extend(f"margin_ward_{i}" for i in range(n))
        else:
            header.append(obs)
    writer.writerow(header)
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
        writer.writerow(cells)
    return buf.getvalue()


# ----------------------------------------------------------------------
# SVG chart (deterministic text output)
# ----------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 400
_SVG_PAD = 50.0
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def margin_chart_svg(title: str, values: list[float], margins: list[list[float]]) -> str:
    """Line chart of per-ward flip margins against the swept parameter."""
    n_wards = len(margins[0]) if margins else 0
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
    for w in range(n_wards):
        pts = " ".join(f"{px(x)},{py(row[w])}" for x, row in zip(xs, margins))
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


def _run_epsilon(args: argparse.Namespace, options: RunOptions) -> float:
    """--epsilon when given, else the scenario file's options.epsilon."""
    if args.epsilon is None:
        return options.epsilon
    return _nonnegative(args.epsilon, "--epsilon")


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario, options, warnings = _load_with_diagnostics(args.scenario)
    epsilon = _run_epsilon(args, options)
    eq = enumerate_nash(scenario, epsilon=epsilon)
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
            raise ScenarioError(
                f"--initial must be a share in [0, 1] with --replicator, got "
                f"{args.initial!r}"
            ) from None
        t_end, t_path = options.t_end, "options.t_end"
        if args.t_end is not None:
            t_end, t_path = _nonnegative(args.t_end, "--t-end"), "--t-end"
        dt, dt_path = options.dt, "options.dt"
        if args.dt is not None:
            dt, dt_path = _positive(args.dt, "--dt"), "--dt"
        _require(
            t_end / dt <= MAX_RK4_STEPS,
            f"{t_path} / {dt_path}",
            f"{t_end} / {dt} needs more than {MAX_RK4_STEPS} RK4 steps",
        )
        result = integrate_replicator(scenario, x0, t_end=t_end, dt=dt)
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
    profile = ActionProfile.from_string(args.initial)
    seed = args.seed if args.seed is not None else options.rng_seed
    trace = best_response_dynamics(
        scenario,
        profile,
        schedule=args.schedule,
        max_iters=args.max_iters if args.max_iters is not None else options.max_iters,
        tie_break=args.tie_break,
        seed=seed,
        epsilon=_run_epsilon(args, options),
    )
    _write_output(trace_to_csv(trace), args.out)
    print(
        f"terminal: {trace.terminal.value} after {trace.iterations} move(s)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, options, _ = _load_with_diagnostics(args.scenario)
    epsilon = _run_epsilon(args, options)
    if args.critical:
        if not args.predicate:
            raise ScenarioError("--critical requires --predicate")
        result = critical_threshold(
            scenario, args.path, args.lo, args.hi, args.predicate, epsilon=epsilon
        )
        doc = threshold_result_dict(result, scenario, options, args.path)
        _write_output(_dump_json(doc), args.out)
        return EXIT_OK
    _require(
        2 <= args.steps <= MAX_GRID_POINTS,
        "--steps",
        f"expected an integer in [2, {MAX_GRID_POINTS}], got {args.steps}",
    )
    observables = tuple(args.observables.split(","))
    spec = SweepSpec(
        parameter_path=args.path,
        lo=args.lo,
        hi=args.hi,
        steps=args.steps,
        observables=observables,
    )
    rows = sweep_parameter(scenario, spec, epsilon=epsilon)
    _write_output(sweep_rows_to_csv(rows, observables, scenario.n), args.out)
    return EXIT_OK


def _canonical_sweeps(scenario: Scenario) -> list[tuple[int, str, str, float, float]]:
    """(index, kind, parameter path, lo, hi) for each sweepable intervention."""
    max_ce = max(w.cost_expose for w in scenario.wards)
    out = []
    for i, iv in enumerate(scenario.interventions):
        if isinstance(iv, EffortReduction):
            out.append((i, "effort", f"interventions[{i}].delta_expose", 0.0, 2.0 * max_ce))
        elif isinstance(iv, Observability):
            out.append((i, "observability", f"interventions[{i}].penalty", 0.0, 4.0 * max_ce))
        elif isinstance(iv, Mechanism):
            if isinstance(iv.capped_cost_expose, tuple):
                print(
                    f"note: skipping canonical sweep for interventions[{i}] "
                    "(per-ward caps)",
                    file=sys.stderr,
                )
                continue
            out.append(
                (i, "mechanism", f"interventions[{i}].capped_cost_expose", 0.0, max_ce)
            )
    return out


def cmd_report(args: argparse.Namespace) -> int:
    scenario, options, warnings = _load_with_diagnostics(args.scenario)
    epsilon = options.epsilon
    bundle = Path(args.bundle)
    bundle.mkdir(parents=True, exist_ok=True)
    eq = enumerate_nash(scenario, epsilon=epsilon)
    flip = flip_conditions(scenario, epsilon=epsilon)
    (bundle / "analyze.json").write_text(
        _dump_json(analyze_report_dict(scenario, options, warnings, eq, flip))
    )
    sys.stdout.write(format_analysis_text(scenario, eq, flip))
    for idx, kind, path, lo, hi in _canonical_sweeps(scenario):
        observables = ("nash_set", "classification", "welfare_gap", "flip_margins")
        spec = SweepSpec(parameter_path=path, lo=lo, hi=hi, steps=21, observables=observables)
        rows = sweep_parameter(scenario, spec, epsilon=epsilon)
        stem = f"{idx}_{kind}"
        (bundle / f"sweep_{stem}.csv").write_text(
            sweep_rows_to_csv(rows, observables, scenario.n)
        )
        values = [row["value"] for row in rows]
        margins = [row["flip_margins"] for row in rows]
        (bundle / f"margin_{stem}.svg").write_text(
            margin_chart_svg(f"{kind}: margin vs {path}", values, margins)
        )
        predicate = "all_expose_nash" if kind == "mechanism" else "all_buffer_not_nash"
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
    p.add_argument("--schedule", choices=("round_robin", "random"), default="round_robin")
    p.add_argument("--tie-break", choices=("stay", "expose", "buffer"), default="stay")
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
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument(
        "--observables",
        default="nash_set,classification,welfare_gap,flip_margins",
        help="comma-separated subset of nash_set,classification,welfare_gap,flip_margins",
    )
    p.add_argument("--critical", action="store_true", help="bisect instead of sweeping")
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
