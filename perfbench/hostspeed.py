"""Host speed reference for the benchmark's reported times.

The benchmark runs on a share of a host whose single-thread speed drifts
by 20-50% over minutes (other tenants, frequency changes).  The drift
moves every wall time of a run by about the same factor, and no run
length averages it away.  So the benchmark times a fixed reference
computation just before and just after every timed interval, on the same
thread, and reports

    adjusted_s = wall_s * REFERENCE_S / mean(reference times of the run)

i.e. the seconds the interval would have taken on a host where the
reference takes ``REFERENCE_S``.  The factor is one per run (per phase of
a run), from all of that phase's reference samples: a single sample sees
the host's seconds-long fast and slow spells, the run's mean sees the
slow drift that moves one run against another.  The reference is plain
Python (integer arithmetic, dict stores, a loop) and uses nothing from
lesionkit, so a change to lesionkit moves the adjusted time exactly as it
moves the wall time.  Raw wall and reference times are kept in the
benchmark's detail line.
"""

from __future__ import annotations

import statistics
import time

#: the reference's time in the fast state of a 2-core Xeon VM (Python 3.11)
REFERENCE_S = 0.006
REPEATS = 10


def _kernel() -> int:
    table = {}
    acc = 0
    for i in range(60_000):
        acc += i * i
        table[i & 1023] = acc
    return acc


def reference_s() -> float:
    """Seconds of the reference computation now: the fastest of REPEATS
    runs, which is the least disturbed by preemption (about 0.1 s)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(refs) -> float:
    """Multiplier from wall seconds to reference-speed seconds for an
    interval whose reference samples are `refs`."""
    return REFERENCE_S / statistics.mean(refs)
