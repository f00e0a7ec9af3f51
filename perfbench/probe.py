"""One-shot, ungated re-timing of the ROADMAP baseline table.

    python3 perfbench/run.py --probe

Times each feasible row in process, in well under two minutes, and prints
a table beside the ROADMAP figure. Rows under a second take the best of
three runs; longer rows run once. Rows that take minutes are listed as
skipped. The table is also written to .perfbench_work/results/probe.json.
Nothing is compared against a bound.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from wardgames import (
    LinearBenefit,
    Observability,
    Scenario,
    ThresholdBenefit,
    Ward,
    critical_threshold,
    enumerate_nash,
    flip_conditions,
    integrate_replicator,
    symmetric_scenario,
)


def observed(n: int) -> Scenario:
    """s0 with one observability intervention whose penalty (1.0) leaves
    all-Buffer the unique Nash profile. The shipped s0_observability
    (penalty 1.4) makes every ward indifferent, so all 2^N profiles are
    weakly Nash and enumeration is refused beyond N = 22."""
    return symmetric_scenario(n, 2.0, 1.0, LinearBenefit(0.3), [Observability(0.5, 0.0, 1.0)])


def v0_veto(n: int) -> Scenario:
    """The shipped v0_veto scenario with n wards (tau = n)."""
    return symmetric_scenario(n, 2.0, 1.0, ThresholdBenefit(n, 3.0))


def asymmetric(n: int) -> Scenario:
    """n wards with distinct costs, so enumeration takes the 2^N scan."""
    wards = tuple(Ward(i, 1.8 + 0.05 * i, 1.0) for i in range(n))
    return Scenario(wards, LinearBenefit(0.3), (Observability(0.5, 0.0, 1.0),))


# (operation, N, ROADMAP figure, call)
ROWS: list[tuple[str, str, str, Callable[[], object]]] = [
    *(("enumerate_nash symmetric", str(n), ref, lambda n=n: enumerate_nash(observed(n)))
      for n, ref in ((16, "3 ms"), (64, "123 ms"), (256, "7.1 s"))),
    ("flip_conditions symmetric", "256", "114 ms",
     lambda: flip_conditions(observed(256))),
    *((f"enumerate_nash asymmetric, {w} thread(s)", str(n), ref,
       lambda n=n, w=w: enumerate_nash(asymmetric(n), workers=w))
      for n, w, ref in ((16, 1, "9.5 ms"), (16, 2, "20.8 ms"),
                        (20, 1, "128 ms"), (20, 2, "124 ms"))),
    ("integrate_replicator defaults", "4 (v0)", "0.59 s",
     lambda: integrate_replicator(v0_veto(4), 0.5)),
    ("integrate_replicator defaults", "32", "8.0 s",
     lambda: integrate_replicator(v0_veto(32), 0.5)),
    *(("critical_threshold penalty", str(n), ref,
       lambda n=n: critical_threshold(observed(n), "interventions[0].penalty",
                                      0.0, 8.0, "all_buffer_not_nash"))
      for n, ref in ((4, "2.4 ms"), (256, "1.7 s"))),
]

SKIPPED = [
    ("enumerate_nash symmetric", "1024", "421 s"),
    ("sweep_parameter, 21 points", "256", "143 s"),
]


def _time(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    best = time.perf_counter() - start
    if best < 1.0:
        for _ in range(2):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    rows = []
    print(f"{'operation':44s} {'N':>7s} {'ROADMAP':>9s} {'now':>11s}")
    for op, n, ref, call in ROWS:
        try:
            now = f"{_time(call) * 1000:.1f} ms"
        except Exception as exc:  # report the row and go on with the next
            now = f"{type(exc).__name__}: {exc}"
        print(f"{op:44s} {n:>7s} {ref:>9s} {now:>11s}", flush=True)
        rows.append({"operation": op, "n": n, "roadmap": ref, "now": now})
    for op, n, ref in SKIPPED:
        print(f"{op:44s} {n:>7s} {ref:>9s} {'skipped':>11s}")
        rows.append({"operation": op, "n": n, "roadmap": ref, "now": "skipped"})
    results = Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / "probe.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0
