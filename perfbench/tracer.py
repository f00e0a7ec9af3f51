"""Span tracer that times calls into the package's public functions from
outside the package.

Modules bind engine functions directly (`from .interventions import
payoff_tables`), so wrapping one module attribute is not enough: the tracer
rebinds every attribute of every loaded `wardgames` module that *is* the
original function object, and restores all of them on exit. A name that no
longer exists is reported in `absent` instead of failing.

Each call records a span: name, start, end and parent span. The spans of
the job in progress are kept in memory in flat arrays; `end_job(job)` folds
them into per-name calls, wall and self time under that job's id and into
the run's totals, which also count errors. Self time is a span's duration
minus the durations of its direct children. Raw spans are not kept past
their job: one traced run makes over half a million calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

# (span name, module, attribute). Several attributes may share a span name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "wardgames.cli", "main"),
    ("cli.load_scenario_document", "wardgames.cli", "load_scenario_document"),
    *(
        ("cli.render", "wardgames.cli", fn)
        for fn in (
            "analyze_report_dict",
            "format_analysis_text",
            "threshold_result_dict",
            "sweep_rows_to_csv",
            "margin_chart_svg",
            "replicator_to_csv",
            "trace_to_csv",
        )
    ),
    ("model.welfare", "wardgames.model", "welfare"),
    ("interventions.effective_payoff", "wardgames.interventions", "effective_payoff"),
    ("interventions.payoff_tables", "wardgames.interventions", "payoff_tables"),
    ("equilibrium.enumerate_nash", "wardgames.equilibrium", "enumerate_nash"),
    ("equilibrium.flip_conditions", "wardgames.equilibrium", "flip_conditions"),
    ("equilibrium.is_nash", "wardgames.equilibrium", "is_nash"),
    ("sweep.sweep_parameter", "wardgames.sweep", "sweep_parameter"),
    ("sweep.critical_threshold", "wardgames.sweep", "critical_threshold"),
    ("sweep.set_by_path", "wardgames.sweep", "set_by_path"),
    ("dynamics.integrate_replicator", "wardgames.dynamics", "integrate_replicator"),
    (
        "dynamics.expected_payoffs_by_strategy",
        "wardgames.dynamics",
        "expected_payoffs_by_strategy",
    ),
    ("dynamics.best_response_dynamics", "wardgames.dynamics", "best_response_dynamics"),
)

# Counters read from a wrapped function's return value: counter -> (span, f).
COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "equilibrium.nash_profiles": (
        "equilibrium.enumerate_nash", lambda r: len(r.nash_profiles)),
    "sweep.grid_points": ("sweep.sweep_parameter", len),
    "sweep.bisect_iters": ("sweep.critical_threshold", lambda r: r.iterations),
    "dynamics.rk4_steps": (
        "dynamics.integrate_replicator", lambda r: len(r.trajectory) - 1),
    "dynamics.fixed_points": (
        "dynamics.integrate_replicator", lambda r: len(r.fixed_points)),
    "dynamics.br_moves": ("dynamics.best_response_dynamics", lambda r: r.iterations),
}


class Tracer:
    """Context manager that wraps TARGETS for the duration of a `with`."""

    def __init__(self, targets=TARGETS) -> None:
        self.names: list[str] = sorted({name for name, _, _ in targets})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._targets = targets
        self._hooks: dict[str, list[tuple[str, Callable[[Any], int]]]] = {}
        for counter, (span, read) in COUNTERS.items():
            self._hooks.setdefault(span, []).append((counter, read))
        self.absent: list[str] = []  # "module.attribute" not found
        self._patches: list[tuple[object, str, object]] = []
        # Spans of the current job, one entry per column.
        self._start = array("q")
        self._end = array("q")
        self._parent = array("l")
        self._name = array("H")
        self._stack: list[int] = []
        # Totals over finished jobs, indexed by span name id.
        self.calls = [0] * len(self.names)
        self.wall_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.counts: dict[str, int] = {c: 0 for c in COUNTERS}
        self.root_ns = 0  # summed duration of top-level spans
        # Job id -> span name -> [calls, wall_ms, self_ms], spans called only.
        self.jobs: dict[str, dict[str, list]] = {}

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "wardgames" or key.startswith("wardgames."))
        ]
        for name, module_name, attr in self._targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(self._ids[name], original, self._hooks.get(name, []))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name_id: int, fn: Callable, hooks: list) -> Callable:
        start, end, parent, names, stack = (
            self._start, self._end, self._parent, self._name, self._stack)
        errors, counts, clock = self.errors, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            for counter, read in hooks:
                try:
                    counts[counter] += read(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    # -- per-job bookkeeping ----------------------------------------------

    def end_job(self, job: str) -> None:
        """Fold the current job's spans into its own and the run's totals,
        and drop them."""
        dur = [e - s for s, e in zip(self._start, self._end)]
        own = list(dur)
        for i, p in enumerate(self._parent):
            if p >= 0:
                own[p] -= dur[i]
            else:
                self.root_ns += dur[i]
        calls, wall, self_ns = ([0] * len(self.names) for _ in range(3))
        for i, nid in enumerate(self._name):
            calls[nid] += 1
            wall[nid] += dur[i]
            self_ns[nid] += own[i]
        self.jobs[job] = {name: [calls[i], wall[i] / 1e6, self_ns[i] / 1e6]
                          for i, name in enumerate(self.names) if calls[i]}
        for i in range(len(self.names)):
            self.calls[i] += calls[i]
            self.wall_ns[i] += wall[i]
            self.self_ns[i] += self_ns[i]
        for column in (self._start, self._end, self._parent, self._name):
            del column[:]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, wall_ms, self_ms and errors."""
        return {
            name: {
                "calls": self.calls[i],
                "wall_ms": self.wall_ns[i] / 1e6,
                "self_ms": self.self_ns[i] / 1e6,
                "errors": self.errors[i],
            }
            for i, name in enumerate(self.names)
        }
