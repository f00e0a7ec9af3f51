"""Benchmark runner for the wardgames CLI.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 20]   # every workload, both modes
    python3 perfbench/run.py --probe                           # one-shot ROADMAP baseline rows

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in its own child process (perfbench/loop.py), which
writes its scenario files and artifacts under .perfbench_work/ in the
checkout. After the child exits, every job's outputs are checked against
independent oracles (perfbench/checks.py), outside the timed window.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and
the per-layer metrics of a second, traced run of the same jobs with
--trace 1. Earlier lines print every metric by name with its unit. Job and
import times in the end-to-end metrics are calibrated by a host speed
reference (perfbench/host.py); the uncalibrated ones are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 140.0  # for set-up and the workload child, leaving time for the checks
SETUP_LAUNCHES = 11  # fresh interpreters per setup_s sample, after one warm-up

# name -> unit; the end-to-end metrics of --trace 0:
#   jobs_per_s   completed jobs / calibrated seconds spent inside cli.main
#   job_ms_p50   median calibrated wall time of one CLI job (samples: attempted)
#   peak_rss_mb  peak resident memory of the workload child
#   setup_s      median calibrated time for a fresh interpreter to import wardgames.cli
END_TO_END = {"jobs_per_s": "1/s", "job_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# name -> unit; the per-layer metrics of --trace 1. A span's self time is
# given as its share of the traced cli.main wall time (absolute self_ms are
# printed and kept in the results record): a layer a workload never calls
# reads 0 on every run, which as a time would look like a frozen clock.
PER_LAYER = {
    "interventions.effective_payoff.calls": "count",
    "interventions.effective_payoff.self_share": "ratio",
    "model.welfare.calls": "count",
    "model.welfare.self_share": "ratio",
    "interventions.payoff_tables.calls": "count",
    "interventions.payoff_tables.self_share": "ratio",
    "interventions.payoff_tables.calls_per_job": "calls/job",
    "equilibrium.enumerate_nash.calls": "count",
    "equilibrium.enumerate_nash.self_share": "ratio",
    "equilibrium.enumerate_nash.errors": "count",
    "equilibrium.nash_profiles": "count",
    "equilibrium.flip_conditions.self_share": "ratio",
    "equilibrium.is_nash.calls": "count",
    "equilibrium.is_nash.self_share": "ratio",
    "sweep.sweep_parameter.self_share": "ratio",
    "sweep.grid_points": "count",
    "sweep.critical_threshold.self_share": "ratio",
    "sweep.critical_threshold.errors": "count",
    "sweep.bisect_iters": "count",
    "sweep.set_by_path.calls": "count",
    "sweep.set_by_path.self_share": "ratio",
    "sweep.threshold_found_ratio": "ratio",
    "dynamics.integrate_replicator.self_share": "ratio",
    "dynamics.rk4_steps": "count",
    "dynamics.fixed_points": "count",
    "dynamics.expected_payoffs_by_strategy.calls": "count",
    "dynamics.expected_payoffs_by_strategy.self_share": "ratio",
    "dynamics.best_response_dynamics.self_share": "ratio",
    "dynamics.br_moves": "count",
    "cli.load_scenario_document.self_share": "ratio",
    "cli.render.self_share": "ratio",
    "cli.main.self_share": "ratio",
    "cli.bytes_out": "bytes",
    "failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _import_package() -> None:
    """Import wardgames from this checkout's src/, never from elsewhere."""
    if not (SRC / "wardgames" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'wardgames'}; run from a source checkout")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import wardgames

    if Path(wardgames.__file__).resolve().parent != SRC / "wardgames":
        sys.exit(f"error: wardgames imported from {wardgames.__file__}, not {SRC}")


def _child_env() -> dict[str, str]:
    """The caller's environment without WARDGAMES_THREADS, so the engine's
    default of one thread applies."""
    env = dict(os.environ)
    env.pop("WARDGAMES_THREADS", None)
    return env


def _commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree.
    The search for a repository stops at the checkout's root."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def measure_setup_s(env: dict[str, str]) -> tuple[float, float, list[list[float]]]:
    """Median import time of wardgames.cli over fresh interpreters, host
    calibrated and raw, and the (import, reference) seconds of each launch."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import wardgames.cli; took = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "from perfbench.host import reference_s; "
        "print(repr(took), repr(min(reference_s() for _ in range(3))))"
    )
    from perfbench.host import REF_S

    samples = []
    for i in range(SETUP_LAUNCHES + 1):
        done = subprocess.run([sys.executable, "-c", code, str(SRC), str(ROOT)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first launch also compiles the bytecode cache
            samples.append([float(x) for x in done.stdout.split()])
    calibrated = statistics.median(took * REF_S / ref for took, ref in samples)
    return calibrated, statistics.median(took for took, _ in samples), samples


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def trace_identity_problems(work: Path) -> list[str]:
    """Traced artifacts, stdout and stderr must equal the untraced ones."""
    plain, traced = _tree_bytes(work / "plain"), _tree_bytes(work / "traced")
    if plain.keys() != traced.keys():
        diff = sorted(plain.keys() ^ traced.keys())[:5]
        return [f"traced run wrote a different set of files: {diff}"]
    return [f"traced {k} differs from the untraced run" for k in sorted(plain)
            if plain[k] != traced[k]]


def _bytes_out(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*")
               if p.is_file() and p.suffix != ".stderr")


def layer_metrics(trace: dict, jobs: int, sweeps: int, found: int, failed: int,
                  bytes_out: int, plain_s: float) -> dict[str, float]:
    spans, counters = trace["spans"], trace["counters"]
    values: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in spans and field in ("calls", "errors"):
            values[name] = spans[span][field]
        elif span in spans and field == "self_share":
            values[name] = spans[span]["self_ms"] / trace["root_ms"]
        elif name in counters:
            values[name] = counters[name]
    values["interventions.payoff_tables.calls_per_job"] = (
        spans.get("interventions.payoff_tables", {}).get("calls", 0) / jobs)
    values["sweep.threshold_found_ratio"] = found / sweeps if sweeps else 0.0
    values["cli.bytes_out"] = bytes_out
    values["failed_ratio"] = failed / jobs
    values["trace.overhead_ratio"] = trace["traced_s"] / plain_s
    # A span or counter the package no longer has reads 0.
    return {name: values.get(name, 0) for name in PER_LAYER}


def self_shares(trace: dict) -> list[tuple[str, float, float]]:
    """(span, self_ms, share of traced cli.main time), largest first."""
    total = trace["root_ms"] or 1.0
    rows = [(name, s["self_ms"], s["self_ms"] / total) for name, s in trace["spans"].items()]
    return sorted(rows, key=lambda r: -r[1])


def run_workload(args: argparse.Namespace) -> int:
    began = time.monotonic()
    _import_package()
    from perfbench import checks
    from perfbench.host import REF_S
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; valid: {', '.join(WORKLOADS)}")
    env = _child_env()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup_s(env) if not args.trace else None
        child = [sys.executable, str(Path(__file__).resolve()), "--child",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--work", str(work)]
        budget = DEADLINE_S - (time.monotonic() - began)
        try:
            subprocess.run(child, env=env, cwd=ROOT, check=True, timeout=budget)
        except subprocess.TimeoutExpired:
            sys.exit(f"error: the workload child ran past {DEADLINE_S:.0f} s")
        except subprocess.CalledProcessError as exc:
            sys.exit(f"error: the workload child exited with {exc.returncode}")
        record = json.loads((work / "child.json").read_text())
        jobs = record["jobs"]
        checks_began = time.monotonic()
        rng = random.Random(f"checks:{args.workload}:{args.seed}")
        failures, sweeps, found = [], 0, 0
        for job in jobs:
            try:
                problems, s, f = checks.check_job(job, work / "plain", rng)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or garbled
                problems, s, f = [f"unreadable output: {exc!r}"], 0, 0
            if "traced_rc" in job:
                problems.append(f"traced run exited {job['traced_rc']}, untraced {job['rc']}")
            sweeps, found = sweeps + s, found + f
            if problems:
                failures.append((job["name"], job["kind"], job["n"], problems))
        identity = trace_identity_problems(work) if args.trace else []
        bytes_out = _bytes_out(work / "plain")
        checks_s = time.monotonic() - checks_began
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [job["seconds"] for job in jobs]
    calibrated = [job["seconds"] * REF_S / job["ref_s"] for job in jobs]
    raw = {"jobs_per_s": len(jobs) / sum(times), "job_ms_p50": statistics.median(times) * 1000.0}
    if args.trace:
        metrics = layer_metrics(record["trace"], len(jobs), sweeps, found, len(failures),
                                bytes_out, sum(times))
        units = PER_LAYER
    else:
        metrics = {
            "jobs_per_s": len(jobs) / sum(calibrated),
            "job_ms_p50": statistics.median(calibrated) * 1000.0,
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": setup[0],
        }
        raw["setup_s"] = setup[1]
        units = END_TO_END

    env_info = environment()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info, "jobs": len(jobs),
        "checks_s": checks_s, "run_s": time.monotonic() - began,
        "job_seconds": times, "reference_seconds": [job["ref_s"] for job in jobs],
        "failures": failures, "identity": identity, "metrics": metrics,
        "raw_metrics": raw, "setup_samples": setup[2] if setup else None,
        "trace_summary": record.get("trace"),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"commit={env_info['commit'][:12]} python={env_info['python']} "
          f"nproc={env_info['nproc']} platform={env_info['platform']}")
    print(f"# jobs={len(jobs)} (samples of job_ms_p50) failed={len(failures)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("# uncalibrated: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    if args.trace:
        print("# self time share of traced cli.main wall, largest first")
        for name, ms, share in self_shares(record["trace"])[:8]:
            print(f"#   {name:44s} {ms:12.1f} ms {share:7.1%}")
        if record["trace"]["absent"]:
            print(f"# absent from the package: {', '.join(record['trace']['absent'])}")
    for name, kind, n, problems in failures[:20]:
        print(f"FAILED {name} {kind} N={n}: {'; '.join(problems[:3])}", file=sys.stderr)
    for problem in identity[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not identity,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each as its own run."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--probe", action="store_true", help="time the ROADMAP baseline rows")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.child:
        _import_package()
        from perfbench import loop

        loop.run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.work))
        return 0
    if args.probe:
        _import_package()
        from perfbench import probe

        return probe.main()
    if args.all:
        _import_package()
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
