"""Seeded scenario generators for the three benchmark workloads.

A workload is an endless sequence of rounds of jobs. Sizes, benefit kinds
and intervention counts follow a fixed rotation, so every few rounds hold
the same mix; costs, curve parameters, thresholds and which interventions
apply are drawn. Round r of a workload is a pure function of (workload,
seed, r): the same seed gives byte-identical scenario files and a
different seed gives different ones.

Costs are drawn as in the shipped scenarios: c(E) in [1.5, 2.5] and c(B) in
[0.5, 1.2]. Draws are never re-rolled after seeing the engine's output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("analyze", "report", "dynamics")

# Job kinds, one per CLI invocation shape.
ANALYZE = "analyze"
REPORT = "report"
REPLICATOR = "replicator"
BEST_RESPONSE = "best_response"


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its kind, size and scenario document.

    `initial` is the --initial argument of a dynamics job ("" otherwise).
    """

    kind: str
    n: int
    symmetric: bool
    doc: dict
    initial: str = ""

    def scenario_text(self) -> str:
        return json.dumps(self.doc, indent=1, sort_keys=True) + "\n"

    def argv(self, scenario: str, out: str) -> list[str]:
        """CLI arguments; `out` is the job's own output path."""
        if self.kind == ANALYZE:
            return ["analyze", scenario, "--out", f"{out}.json"]
        if self.kind == REPORT:
            return ["report", scenario, "--bundle", out]
        if self.kind == REPLICATOR:
            return ["dynamics", scenario, "--replicator", "--initial", self.initial,
                    "--out", f"{out}.csv"]
        return ["dynamics", scenario, "--initial", self.initial, "--out", f"{out}.csv"]


def _primes(count: int) -> list[int]:
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


# Irrational steps, one per draw slot: the fractional parts of sqrt(prime).
_ALPHAS = tuple(math.sqrt(p) % 1.0 for p in _primes(512))


class Draws:
    """Uniform draws for one job slot of a round, spread evenly over rounds.

    Draw i of round r is frac(offset_i + r * alpha_i): a Kronecker sequence
    with a random offset per draw, seeded by the workload, the seed and the
    job's place in the round (randomised quasi-Monte Carlo). Across the
    rounds of one run each parameter covers its range evenly, so the mix of
    job costs, and with it the run's throughput, varies little from seed
    to seed. Callers draw in a fixed order so that draw i means the same
    parameter in every round.
    """

    def __init__(self, key: str, round_index: int) -> None:
        self._offsets = random.Random(key)
        self._round = round_index
        self._i = 0

    def random(self) -> float:
        alpha = _ALPHAS[self._i % len(_ALPHAS)]
        self._i += 1
        return (self._offsets.random() + self._round * alpha) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        return lo + min(int(self.random() * (hi - lo + 1)), hi - lo)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


def _wards(d: Draws, n: int, symmetric: bool) -> dict | list:
    costs = [{"cost_expose": d.uniform(1.5, 2.5), "cost_buffer": d.uniform(0.5, 1.2)}
             for _ in range(1 if symmetric else n)]
    return {"symmetric": costs[0]} if symmetric else costs


def _interventions(d: Draws, complements: bool, count: int) -> list:
    """`count` of the three archetypes in a drawn order. All three are
    always drawn, so later draws keep their meaning."""
    effort = {"kind": "effort", "delta_expose": d.uniform(0.0, 1.0),
              "delta_buffer": d.uniform(0.0, 0.3)}
    observability = {"kind": "observability", "p0": d.uniform(0.0, 0.8),
                     "p_slope": d.uniform(0.0 if complements else -0.5, 0.5),
                     "penalty": d.uniform(0.0, 3.0)}
    mechanism = {"kind": "mechanism", "capped_cost_expose": d.uniform(0.5, 2.0),
                 "mode": d.choice(("absorb", "redistribute"))}
    keys = [d.random() for _ in range(3)]
    order = sorted(range(3), key=keys.__getitem__)
    return [(effort, observability, mechanism)[i] for i in order[:count]]


def _convex_table(d: Draws, n: int) -> list[float]:
    """B(0) = 0 with nondecreasing increments on a 1/1024 grid, so that the
    cumulative sums are exact and the increments stay nondecreasing."""
    steps = sorted(d.randint(0, 2048) for _ in range(n))
    values, total = [0.0], 0
    for s in steps:
        total += s
        values.append(total / 1024)
    return values


def _unimodal_table(n: int, a: float, b: float, m: float) -> list[float]:
    """B(0) = 0 with nonnegative increments a + b (t - m)^2, t = j / N, so
    the gain to expose changes sign at most twice."""
    values, total = [0.0], 0.0
    for j in range(n):
        total += max(0.0, a + b * (j / n - m) ** 2)
        values.append(total)
    return values


def complement_benefit(d: Draws, n: int, kind: str) -> dict:
    """Linear, veto threshold (tau = N) or a table with nondecreasing
    increments: B(j+1) - B(j) never decreases."""
    if kind == "linear":
        return {"kind": "linear", "beta_per_exposer": d.uniform(0.0, 1.5)}
    if kind == "threshold":
        return {"kind": "threshold", "tau": n, "beta": d.uniform(0.5, 3.0)}
    return {"kind": "table", "values": _convex_table(d, n)}


def any_benefit(d: Draws, n: int, kind: str) -> dict:
    """Any of the four kinds; tau < N and concave curves make strategic
    substitutes with interior Nash orbits. Always three draws."""
    u, v, w = d.random(), d.random(), d.random()
    if kind == "linear":
        return {"kind": "linear", "beta_per_exposer": 1.5 * u}
    if kind == "threshold":
        return {"kind": "threshold", "tau": 1 + min(int(u * n), n - 1), "beta": 0.5 + 2.5 * v}
    if kind == "concave":
        return {"kind": "concave", "beta": 0.5 + 2.5 * u, "gamma": 0.3 + 0.7 * v}
    return {"kind": "table", "values": _unimodal_table(n, 2.0 * u, 4.0 * v - 2.0, w)}


COMPLEMENT_KINDS = ("linear", "threshold", "table")
ALL_KINDS = ("linear", "threshold", "concave", "table")
REPORT_SIZES = {True: (10, 12, 14), False: (8, 9, 10)}


def _doc(n: int, wards: dict | list, ivs: list, benefit: dict) -> dict:
    return {"n_wards": n, "wards": wards, "benefit": benefit, "interventions": ivs}


def _size(d: Draws, lo: int, hi: int, stratum: int, strata: int) -> int:
    """N log-uniform in the stratum-th of `strata` equal slices of [lo, hi].

    Sizes fill the range, so job times are dense. When a round holds as
    many jobs below a stratum boundary as above it, the median job time
    falls on that boundary rather than inside one size class, and a run's
    median moves little with the draws."""
    return round(lo * (hi / lo) ** ((stratum + d.random()) / strata))


def _analyze_round(key: str, r: int) -> list[Job]:
    """One job in each quarter of N = 32-128 (log scale); the benefit kind
    and the number of interventions (0-3) rotate with the round."""
    jobs = []
    for i in range(4):
        d = Draws(f"{key}:{i}", r)
        n = _size(d, 32, 128, i, 4)
        wards, ivs = _wards(d, n, True), _interventions(d, True, (r + i) % 4)
        benefit = complement_benefit(d, n, COMPLEMENT_KINDS[(r + i) % 3])
        jobs.append(Job(ANALYZE, n, True, _doc(n, wards, ivs, benefit)))
    return jobs


def _report_round(key: str, r: int) -> list[Job]:
    """Each benefit kind once symmetric and once asymmetric. Sizes and the
    number of interventions (1-3) rotate with the round, so three
    consecutive rounds hold every size once per kind and symmetry."""
    jobs = []
    for k, kind in enumerate(ALL_KINDS):
        for s, symmetric in enumerate((True, False)):
            d = Draws(f"{key}:{2 * k + s}", r)
            n = REPORT_SIZES[symmetric][(r + k) % 3]
            benefit = any_benefit(d, n, kind)  # first: its draws come first every round
            ivs = _interventions(d, False, 1 + (r + 2 * k + s) % 3)
            jobs.append(Job(REPORT, n, symmetric, _doc(n, _wards(d, n, symmetric), ivs, benefit)))
    return jobs


def _dynamics_round(key: str, r: int) -> list[Job]:
    """Replicator on symmetric N = 4-16 (one job per fifth of the range) and
    best response on asymmetric N = 32-128 (one per third); benefit kinds
    rotate. Best response jobs are the fastest, so with three of them in
    eight the median job falls between the two smallest replicator strata,
    whose cost depends on N and the number of interventions."""
    jobs = []
    for i in range(5):
        d = Draws(f"{key}:{i}", r)
        n = _size(d, 4, 16, i, 5)
        # A fixed count per stratum keeps the two strata at the median apart.
        wards, ivs = _wards(d, n, True), _interventions(d, False, (i + 1) % 4)
        doc = _doc(n, wards, ivs, any_benefit(d, n, ALL_KINDS[(r + i) % 4]))
        jobs.append(Job(REPLICATOR, n, True, doc, initial=repr(d.uniform(0.02, 0.98))))
    for i in range(3):
        d = Draws(f"{key}:{i + 5}", r)
        n = _size(d, 32, 128, i, 3)
        wards, ivs = _wards(d, n, False), _interventions(d, False, (r + i + 2) % 4)
        doc = _doc(n, wards, ivs, any_benefit(d, n, ALL_KINDS[(r + i + 2) % 4]))
        initial = "".join(d.choice("EB") for _ in range(n))
        jobs.append(Job(BEST_RESPONSE, n, False, doc, initial=initial))
    return jobs


ROUNDS: dict[str, Callable[[str, int], list[Job]]] = {
    "analyze": _analyze_round,
    "report": _report_round,
    "dynamics": _dynamics_round,
}


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of round `index` of a workload under `seed`."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")
    return ROUNDS[workload](f"{workload}:{seed}", index)
