"""The box's speed during a run, from a fixed calibration task.

The reference box is shared, and its speed drifts from one half-minute to
the next by up to 1.3x; Python-loop work and numpy work slow down together
(over 10 s windows their mean times correlated at 0.96).  The benchmark
runs a short calibration task, which touches no opsample code, before every
measured operation and before every set-up.  CLI times are reported at
reference speed, wall time x ``REF_S`` / the run's mean calibration time,
and each set-up by the calibration just before it.  On fifteen ``ingest``
runs this cut the quartile spread of ``grid_runs_per_s`` from 0.22 to 0.09.
The surprise scores stay wall time: their memory-bound numpy work tracked
the calibration worse than it tracked nothing.
"""

from __future__ import annotations

import time

import numpy as np

perf = time.perf_counter

#: Typical seconds of one calibration task on the reference box (2-core Xeon, 2.1 GHz).
REF_S = 0.037


def calibration_task() -> int:
    """Scalar draws and binary searches, like the techniques' hot loops, then
    vector passes over 10^5 values, like ``kmeans_1d``."""
    rng = np.random.Generator(np.random.Philox(12345))
    cum = np.cumsum(rng.random(20_000))
    acc = 0
    for _ in range(3000):
        acc += int(np.searchsorted(cum, rng.random() * cum[-1]))
    x = rng.random(100_000)
    for _ in range(2):
        acc += int(np.argmin(np.abs(x[:, None] - cum[None, :10]), axis=1).sum())
    return acc


def calibrate() -> float:
    """Seconds one calibration task takes now."""
    t0 = perf()
    calibration_task()
    return perf() - t0
