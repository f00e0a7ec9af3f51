"""Host speed reference for calibrating wall times.

The shared host this benchmark was written on changes speed by up to a
factor of two within minutes (a fixed job's wall time has a coefficient of
variation of about 0.35 over one minute), which no amount of work per run
averages out. Every timed job is therefore bracketed by a short, fixed,
pure-Python loop that does not touch the package, and its wall time is
scaled by REF_S / (reference time measured beside it): the time the job
would have taken on a host that runs the reference in REF_S seconds. With
it, the spread between the quartiles of ten 20 s runs of jobs_per_s, as a
share of their median, fell from 0.15-0.54 to 0.06-0.10 on that host.
Raw times are recorded beside the calibrated ones.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.005  # nominal reference time, about this host's when it runs fast
_ITERS = 30000
_TABLE = {k: k * 0.5 for k in range(1024)}


def reference_s() -> float:
    """Wall seconds of the fixed reference loop. It allocates nothing that
    outlives an iteration and runs with the cyclic collector off, so the
    state of the package's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = _TABLE
        total = 0.0
        start = time.perf_counter()
        for i in range(_ITERS):
            total += table[(i * 7919) & 1023] * 1.0000001
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
