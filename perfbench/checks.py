"""Output checks against independent oracles, run outside the timed window.

Each check takes one finished job's scenario and artifacts and returns a
list of problems; an empty list means the job's outputs hold. The oracles
are the slow reference functions `is_nash`, `welfare` and
`expected_payoffs_by_strategy`, plus a 2^N scan for small N.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import replace
from math import comb
from pathlib import Path

from wardgames import (
    ActionProfile,
    EffortReduction,
    Mechanism,
    Observability,
    Scenario,
    effective_payoff,
    expected_payoffs_by_strategy,
    is_nash,
    welfare,
)
from wardgames.cli import load_scenario_document

# Listed Nash profiles beyond this many are checked on a seeded sample.
NASH_SAMPLE = 24
# At or below this N the listed Nash set must equal a full 2^N scan.
FULL_SCAN_MAX_N = 10
# Half-width around a reported fixed point in which u_E - u_B must change
# sign; the CLI prints 12 significant digits of a root bisected to 1e-12.
ROOT_HALF_WIDTH = 1e-9

_PATH = re.compile(r"^interventions\[(\d+)\]\.([a-z_]+)$")
_NOTE = re.compile(r"^note: no threshold for (\S+): ")
_FIXED = re.compile(r"^fixed point x=(\S+) \((\w+)\)$")
_TERMINAL = re.compile(r"^terminal: (\w+) after (\d+) move\(s\)$")

POLES = {
    "all_buffer_nash": ("B", False),
    "all_buffer_not_nash": ("B", True),
    "all_expose_nash": ("E", False),
    "all_expose_not_nash": ("E", True),
}


def with_parameter(scenario: Scenario, path: str, value: float) -> Scenario:
    """Set interventions[i].field, written apart from the package's setter."""
    m = _PATH.match(path)
    if m is None:
        raise ValueError(f"not an intervention parameter path: {path!r}")
    idx, name = int(m.group(1)), m.group(2)
    ivs = list(scenario.interventions)
    ivs[idx] = replace(ivs[idx], **{name: value})
    return replace(scenario, interventions=tuple(ivs))


def predicate_holds(scenario: Scenario, predicate: str, epsilon: float) -> bool:
    action, negate = POLES[predicate]
    profile = ActionProfile.from_string(action * scenario.n)
    return is_nash(scenario, profile, epsilon).is_nash != negate


def canonical_sweeps(scenario: Scenario) -> list[tuple[str, str, float, float, str]]:
    """(file stem, path, lo, hi, predicate) of each sweep `report` runs,
    following the brackets the README documents."""
    max_ce = max(w.cost_expose for w in scenario.wards)
    out = []
    for i, iv in enumerate(scenario.interventions):
        if isinstance(iv, EffortReduction):
            out.append((f"{i}_effort", f"interventions[{i}].delta_expose", 0.0,
                        2.0 * max_ce, "all_buffer_not_nash"))
        elif isinstance(iv, Observability):
            out.append((f"{i}_observability", f"interventions[{i}].penalty", 0.0,
                        4.0 * max_ce, "all_buffer_not_nash"))
        elif isinstance(iv, Mechanism) and not isinstance(iv.capped_cost_expose, tuple):
            out.append((f"{i}_mechanism", f"interventions[{i}].capped_cost_expose", 0.0,
                        max_ce, "all_expose_nash"))
    return out


def anonymous(scenario: Scenario) -> bool:
    """Every ward has the same costs and every mechanism the same cap, so a
    profile's payoffs depend only on its exposer count."""
    if len({(w.cost_expose, w.cost_buffer) for w in scenario.wards}) != 1:
        return False
    return all(len(set(iv.capped_cost_expose)) == 1 for iv in scenario.interventions
               if isinstance(iv, Mechanism) and isinstance(iv.capped_cost_expose, tuple))


def nash_counts(scenario: Scenario, epsilon: float) -> dict[int, bool]:
    """Exposer count k -> strict, for every k whose profiles are Nash in an
    anonymous game. In the profile where wards 0..k-1 expose, ward 0 stands
    for every exposer and ward N-1 for every buffering ward; each is checked
    by its unilateral deviation, as `is_nash` checks every ward."""
    n, out = scenario.n, {}
    for k in range(n + 1):
        profile = ActionProfile.from_mask((1 << k) - 1, n)
        gains = []
        for ward in ([0] if k else []) + ([n - 1] if k < n else []):
            dev = profile.with_action(ward, profile.actions[ward].flipped())
            gains.append(effective_payoff(scenario, dev, ward)
                         - effective_payoff(scenario, profile, ward))
        if all(g <= epsilon for g in gains):
            out[k] = all(g < -epsilon for g in gains)
    return out


def check_analysis(scenario: Scenario, epsilon: float, doc: dict,
                   rng: random.Random) -> list[str]:
    """Listed Nash profiles and their strictness, and the welfare optimum.

    Up to FULL_SCAN_MAX_N the listed set must equal a 2^N scan. Above it, an
    anonymous game's listed set must hold exactly the orbits of the Nash
    exposer counts, and a seeded sample of listed profiles is re-checked
    with `is_nash`."""
    problems = []
    eq = doc["equilibrium"]
    listed = {p["profile"]: p["strict"] for p in eq["nash_profiles"]}
    n = scenario.n
    if len(listed) != len(eq["nash_profiles"]):
        problems.append("a Nash profile is listed twice")
    if n <= FULL_SCAN_MAX_N:
        scanned = {}
        for mask in range(1 << n):
            profile = ActionProfile.from_mask(mask, n)
            check = is_nash(scenario, profile, epsilon)
            if check.is_nash:
                scanned[str(profile)] = check.strict
        if scanned != listed:
            missing = sorted(set(scanned) - set(listed))[:3]
            extra = sorted(set(listed) - set(scanned))[:3]
            problems.append(f"Nash set differs from a 2^{n} scan: missing {missing}, "
                            f"extra {extra}, or strict flags differ")
    else:
        if anonymous(scenario):
            counts = nash_counts(scenario, epsilon)
            by_count = {}
            for name, strict in listed.items():
                by_count.setdefault(name.count("E"), set()).add(strict)
            if by_count.keys() != counts.keys():
                problems.append(f"listed Nash exposer counts {sorted(by_count)}, "
                                f"expected {sorted(counts)}")
            elif any(flags != {counts[k]} for k, flags in by_count.items()):
                problems.append("strict flags differ from the Nash exposer counts")
            if len(listed) != sum(comb(n, k) for k in counts):
                problems.append(f"{len(listed)} Nash profiles listed, expected "
                                f"{sum(comb(n, k) for k in counts)} in the orbits of "
                                f"exposer counts {sorted(counts)}")
        names = sorted(listed)
        for name in rng.sample(names, min(NASH_SAMPLE, len(names))):
            check = is_nash(scenario, ActionProfile.from_string(name), epsilon)
            if not check.is_nash:
                problems.append(f"listed profile {name} is not Nash")
            elif check.strict != listed[name]:
                problems.append(f"listed profile {name} has strict={listed[name]}, "
                                f"is_nash says {check.strict}")
    opt = eq["welfare_optimum"]
    w = welfare(scenario, ActionProfile.from_string(opt["profile"]))
    if w != opt["welfare"]:
        problems.append(f"welfare optimum {opt['profile']} reports {opt['welfare']!r}, "
                        f"welfare() gives {w!r}")
    return problems


def check_report(scenario: Scenario, epsilon: float, bundle: Path, stderr: str,
                 rng: random.Random) -> tuple[list[str], int, int]:
    """Check a report bundle; also returns (sweeps attempted, thresholds found)."""
    problems = check_analysis(
        scenario, epsilon, json.loads((bundle / "analyze.json").read_text()), rng)
    skipped = {m.group(1) for m in map(_NOTE.match, stderr.splitlines()) if m}
    sweeps = canonical_sweeps(scenario)
    found = 0
    for stem, path, lo, hi, predicate in sweeps:
        sweep_csv = bundle / f"sweep_{stem}.csv"
        if not sweep_csv.is_file() or not (bundle / f"margin_{stem}.svg").is_file():
            problems.append(f"sweep {stem}: CSV or SVG missing")
            continue
        rows = sweep_csv.read_text().count("\n")
        if rows != 22:
            problems.append(f"sweep {stem}: {rows} lines, expected a header and 21 rows")
        threshold = bundle / f"threshold_{stem}.json"
        if threshold.is_file():
            found += 1
            doc = json.loads(threshold.read_text())
            a, b = doc["bracket"]
            if predicate_holds(with_parameter(scenario, path, a), predicate, epsilon) == \
                    predicate_holds(with_parameter(scenario, path, b), predicate, epsilon):
                problems.append(f"threshold {stem}: {predicate} is the same at both "
                                f"ends of the bracket [{a!r}, {b!r}]")
        elif path in skipped:
            if predicate_holds(with_parameter(scenario, path, lo), predicate, epsilon) != \
                    predicate_holds(with_parameter(scenario, path, hi), predicate, epsilon):
                problems.append(f"sweep {stem}: report noted no threshold, but {predicate} "
                                f"differs at the ends of [{lo!r}, {hi!r}]")
        else:
            problems.append(f"sweep {stem}: neither a threshold file nor a note")
    return problems, len(sweeps), found


def _gain(scenario: Scenario, x: float) -> float:
    u_e, u_b = expected_payoffs_by_strategy(scenario, x)
    return u_e - u_b


def check_replicator(scenario: Scenario, csv_text: str, stderr: str,
                     steps: int) -> list[str]:
    """The trajectory stays in [0, 1] and every interior fixed point has a
    sign change or zero of u_E - u_B."""
    problems = []
    rows = list(csv.reader(csv_text.splitlines()))[1:]
    if len(rows) != steps + 1:
        problems.append(f"trajectory has {len(rows)} rows, expected {steps + 1}")
    if not all(0.0 <= float(x) <= 1.0 for _, x in rows):
        problems.append("trajectory leaves [0, 1]")
    points = [float(m.group(1)) for m in map(_FIXED.match, stderr.splitlines()) if m]
    if not points or points[0] != 0.0 or points[-1] != 1.0:
        problems.append(f"fixed points {points} do not start at 0 and end at 1")
    for x in points[1:-1]:
        lo = _gain(scenario, max(0.0, x - ROOT_HALF_WIDTH))
        hi = _gain(scenario, min(1.0, x + ROOT_HALF_WIDTH))
        if lo * hi > 0.0 and _gain(scenario, x) != 0.0:
            problems.append(f"no sign change of u_E - u_B around fixed point {x!r}")
    return problems


def check_best_response(scenario: Scenario, csv_text: str, stderr: str,
                        epsilon: float) -> list[str]:
    """A trace ends on a Nash profile iff it reports ConvergedToNash."""
    rows = list(csv.reader(csv_text.splitlines()))
    terminal = [m.group(1) for m in map(_TERMINAL.match, stderr.splitlines()) if m]
    if len(rows) < 2 or len(terminal) != 1:
        return ["trace CSV or terminal line missing"]
    last = ActionProfile.from_string(rows[-1][1])
    nash = is_nash(scenario, last, epsilon).is_nash
    if nash != (terminal[0] == "ConvergedToNash"):
        return [f"trace ends on {last} (Nash: {nash}) but reports {terminal[0]}"]
    return []


def replicator_steps(t_end: float, dt: float) -> int:
    """RK4 steps integrate_replicator takes, including a short last step."""
    steps, t = 0, 0.0
    while t < t_end - 1e-12:
        t += min(dt, t_end - t)
        steps += 1
    return steps


def check_job(job: dict, out_dir: Path, rng: random.Random) -> tuple[list[str], int, int]:
    """Dispatch on the job kind; returns (problems, sweeps, thresholds)."""
    scenario, options = load_scenario_document(job["scenario"])
    out = out_dir / job["name"]
    stderr = (out_dir / f"{job['name']}.stderr").read_text()
    if job["rc"] != 0:
        return [f"exit code {job['rc']}: {stderr.strip()[-300:]}"], 0, 0
    kind, eps = job["kind"], options.epsilon
    if kind == "analyze":
        doc = json.loads(Path(f"{out}.json").read_text())
        return check_analysis(scenario, eps, doc, rng), 0, 0
    if kind == "report":
        return check_report(scenario, eps, out, stderr, rng)
    text = Path(f"{out}.csv").read_text()
    if kind == "replicator":
        steps = replicator_steps(options.t_end, options.dt)
        return check_replicator(scenario, text, stderr, steps), 0, 0
    return check_best_response(scenario, text, stderr, eps), 0, 0

