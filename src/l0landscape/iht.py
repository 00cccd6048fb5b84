"""Iterative hard thresholding, the projected-gradient baseline solver.

Fixed points of the iteration are M-stationary: at a fixed point the gradient
step changes nothing on the kept coordinates, so the gradient vanishes there.
The final iterate's stationarity residual comes from ``point_margins``, the
kernel that gives every enumerated point its residual.

The loop runs thousands of steps on short vectors, so each step's cost is
numpy's per-call dispatch, not arithmetic.  It therefore calls ``ndarray``
methods (``A.dot``, ``.argsort``, ``v.dot(v)``), which reach the same kernels
as ``stationarity.gradient``'s ``matmul``, ``np.argsort`` and
``np.linalg.norm``'s ``sqrt(dot(x, x))`` for a fraction of the per-call
cost, and computes each iterate's norm once.  The iterates are bit for bit
those of the formula written with the public functions:
``tests/test_iht.py::TestBitForBit`` compares the two, byte for byte, on
converged and on cut runs.  ``Instance.from_arrays`` stores ``A`` in C
order, so the bits do not depend on the layout the caller gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteDataError
from .linalg import largest_eigenvalue_gram
from .model import Instance, Support, support_of, validate_instance
from .stationarity import point_margins
from .util import integer

# The iteration stops once a step moves x by at most STEP_TOL * (1 + ||x||),
# or after MAX_ITER steps.
STEP_TOL = 1e-12
MAX_ITER = 10_000


@dataclass
class IhtResult:
    """The final iterate ``x``, its support under ``zero_tol`` and how the run ended."""

    x: np.ndarray
    support: Support
    iterations: int
    converged: bool
    final_step: float
    is_m_stationary: bool


def hard_threshold(x, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries, zeroing the rest.

    Magnitude ties are broken by keeping the lower index, so the projection
    is deterministic.  Vectors with at most s nonzeros pass through
    unchanged.
    """
    x = np.asarray(x, dtype=float)
    s = integer(s, "s")
    if not 0 <= s <= x.shape[0]:
        raise ValueError(f"need 0 <= s <= len(x), got s={s} for length {x.shape[0]}")
    return _keep_top(x, s)


def _keep_top(y: np.ndarray, s: int) -> np.ndarray:
    """``y`` with all but its s largest magnitudes zeroed; ties keep the lower index."""
    out = np.zeros(y.shape[0])
    keep = (-abs(y)).argsort(kind="stable")[:s]
    out[keep] = y[keep]
    return out


def iht_solve(inst: Instance, x0) -> IhtResult:
    """Run hard-thresholded gradient descent with step 1/L, L = lambda_max(A.T A).

    The start is projected onto the feasible set, so the objective is
    nonincreasing along the whole iterate sequence.  The iteration stops when
    the step shrinks below ``STEP_TOL * (1 + ||x||)`` or ``MAX_ITER`` is hit.
    A zero Gram matrix makes the gradient vanish identically, so the projected
    start is returned after zero iterations.  A run only counts as converged
    when the final iterate also passes the stationarity check (gradient on the
    support below ten times ``stat_tol``).
    """
    validate_instance(inst)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (inst.n,):
        raise DimensionMismatchError(f"x0 must have length {inst.n}, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise NonFiniteDataError("x0 contains non-finite entries")

    A, b, s = inst.A, inst.b, inst.s
    AT = A.T
    x = _keep_top(x0, s)
    L = largest_eigenvalue_gram(A)
    # The computed norm may round a hair below lambda_max; the margin keeps
    # the step at most 1/lambda_max so descent stays monotone.
    L *= 1.0 + 1e-9

    iterations = 0
    final_step = 0.0
    step_met = L <= 0.0  # zero Gram matrix: no step is ever taken
    xx = x.dot(x)  # ||x||^2, carried from each step to the next stop test
    for _ in range(0 if step_met else MAX_ITER):
        r = A.dot(x)
        r -= b
        x_next = _keep_top(x - AT.dot(r) / L, s)
        d = x_next - x
        final_step = math.sqrt(d.dot(d))
        x = x_next
        iterations += 1
        if final_step <= STEP_TOL * (1.0 + math.sqrt(xx)):
            step_met = True
            break
        xx = x.dot(x)

    support = support_of(x, inst.tol.zero_tol)
    residual, _ = point_margins(inst, np.array([support], dtype=int), x[None])
    stationary = bool(residual[0] <= 10.0 * inst.tol.stat_tol)
    return IhtResult(
        x=x,
        support=support,
        iterations=iterations,
        converged=step_met and stationary,
        final_step=final_step,
        is_m_stationary=stationary,
    )
