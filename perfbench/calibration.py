"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by up to about 1.4x over tens
of seconds (frequency changes and neighbours on sibling threads), and that
drift moves every timing of a run together.  A fixed kernel with the
program's instruction mix (small LAPACK solves, small numpy reductions,
Python dict and tuple work) is timed around each group of commands; the
group's wall time is then scaled by ``NOMINAL_S / kernel time``, which
reports it in nominal seconds: seconds on a machine where the kernel takes
``NOMINAL_S``.  The kernel never calls the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine the baseline was recorded on
# (2 vCPU Intel Xeon, numpy 2.4 with OpenBLAS pinned to one thread).
NOMINAL_S = 0.0075
REPEATS = 3

_rng = np.random.default_rng(2002)
_A = _rng.standard_normal((6, 3))
_b = _rng.standard_normal(6)
_X = _rng.standard_normal((64, 14))


def kernel() -> float:
    acc = 0.0
    for _ in range(20):
        acc += np.linalg.lstsq(_A, _b, rcond=None)[0][0]
        acc += np.linalg.svd(_A, compute_uv=False)[0]
        for x in _X:
            acc += float(np.max(np.abs(x - _X[0])))
        table = {}
        for j in range(200):
            table[(j, j + 1)] = j * j
    return acc


def sample() -> list[float]:
    """Wall times of ``REPEATS`` kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(before: list[float], after: list[float]) -> float:
    """Factor turning wall seconds measured between two samples into nominal seconds."""
    return NOMINAL_S / statistics.median(before + after)
