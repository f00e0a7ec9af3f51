"""The workload child: runs jobs one at a time through `wardgames.cli.main`.

A closed loop with one client: the next job starts only after the previous
one returns, in a single process with no threads. Rounds of jobs run until
the timed seconds are used up; a round is always finished, so every run
holds the same mix of sizes. Scenario files are written before a round's
jobs start, and each job's stdout and stderr are written after it returns,
so only `cli.main` itself is inside the timed window. A host speed
reference (perfbench/host.py) runs between jobs; each job records the mean
of the references just before and just after it.

With tracing on, the same jobs run a second time under the tracer, into a
separate output directory, after the untraced loop has been measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

from perfbench.host import reference_s
from perfbench.workloads import round_jobs


def _run_one(main, argv: list[str], out_dir: Path, name: str) -> tuple[object, float]:
    """Run one CLI job; returns (exit code, wall seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = "exception"
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    (out_dir / f"{name}.stdout").write_text(stdout.getvalue())
    (out_dir / f"{name}.stderr").write_text(stderr.getvalue())
    return rc, seconds


def timed_loop(workload: str, seed: int, seconds: float, work: Path) -> list[dict]:
    """Untraced rounds until `seconds` of job time are spent."""
    import wardgames.cli as cli

    inputs, out_dir = work / "inputs", work / "plain"
    inputs.mkdir(parents=True)
    out_dir.mkdir()
    jobs: list[dict] = []
    spent, r = 0.0, 0
    ref_before = reference_s()
    while spent < seconds:
        batch = []
        for i, job in enumerate(round_jobs(workload, seed, r)):
            name = f"r{r:03d}_{i}"
            scenario = inputs / f"{name}.json"
            scenario.write_text(job.scenario_text())
            batch.append({"name": name, "kind": job.kind, "n": job.n,
                          "symmetric": job.symmetric, "scenario": str(scenario),
                          "argv": job.argv(str(scenario), str(out_dir / name))})
        for rec in batch:
            rec["rc"], rec["seconds"] = _run_one(cli.main, rec["argv"], out_dir, rec["name"])
            ref_after = reference_s()
            rec["ref_s"] = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
            spent += rec["seconds"]
        jobs.extend(batch)
        r += 1
    return jobs


def traced_loop(jobs: list[dict], work: Path) -> dict:
    """Re-run the same jobs under the tracer; returns its summary."""
    import wardgames.cli as cli
    from perfbench.tracer import Tracer

    plain, out_dir = str(work / "plain"), work / "traced"
    out_dir.mkdir()
    traced_s = 0.0
    with Tracer() as tracer:
        for rec in jobs:
            argv = [a.replace(plain, str(out_dir)) for a in rec["argv"]]
            rc, seconds = _run_one(cli.main, argv, out_dir, rec["name"])
            tracer.end_job(rec["name"])
            traced_s += seconds
            if rc != rec["rc"]:
                rec["traced_rc"] = rc
    return {"spans": tracer.summary(), "counters": tracer.counts,
            "absent": tracer.absent, "traced_s": traced_s, "root_ms": tracer.root_ns / 1e6,
            "jobs": tracer.jobs}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> None:
    """Child entry point; writes its record to work/child.json."""
    jobs = timed_loop(workload, seed, seconds, work)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"jobs": jobs, "peak_rss_mb": peak_kb / 1024.0}
    if trace:
        record["trace"] = traced_loop(jobs, work)
    (work / "child.json").write_text(json.dumps(record))
