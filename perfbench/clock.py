"""Machine-speed probe for normalising timings on a shared host.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, far more than the changes the benchmark
must resolve.  ``probe()`` times a fixed mix of interpreter and small-array
NumPy work that does not touch wavefront.  ``timed(fn)`` runs the probe just
before a call and, from a SIGALRM handler, once every SAMPLE_EVERY_S while
the call runs; it returns the call's wall time without the probes' own time,
scaled to a machine on which the probe takes NOMINAL_PROBE_S (the median
probe is the divisor).  Both commits of a comparison use the same probe, so
the scaling cancels the drift and leaves the program's own cost.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# the probe's median on the machine the bounds were set on (2 vCPU, x86-64)
NOMINAL_PROBE_S = 0.015
SAMPLE_EVERY_S = 1.0

_XS = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Seconds for the fixed reference work (about NOMINAL_PROBE_S)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 80000):
        acc += math.sqrt(i) / i
    v = _XS
    for _ in range(240):
        v = np.interp(0.5 * v + 0.25, _XS, _XS)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * NOMINAL_PROBE_S / probe_s


def timed(fn):
    """(fn(), wall seconds net of probing, median probe seconds)."""
    probes = [probe()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        probes.append(probe())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return result, wall - spent, statistics.median(probes)
