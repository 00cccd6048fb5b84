"""Iterative hard thresholding, the projected-gradient baseline solver.

Fixed points of the iteration are M-stationary: at a fixed point the gradient
step changes nothing on the kept coordinates, so the gradient vanishes there.
The final iterate's stationarity residual comes from ``point_margins``, the
kernel that gives every enumerated point its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteDataError
from .linalg import largest_eigenvalue_gram
from .model import Instance, Support, support_of, validate_instance
from .stationarity import gradient, point_margins

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
    if not 0 <= s <= x.shape[0]:
        raise ValueError(f"need 0 <= s <= len(x), got s={s} for length {x.shape[0]}")
    out = np.zeros_like(x)
    order = np.argsort(-np.abs(x), kind="stable")
    keep = order[:s]
    out[keep] = x[keep]
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
    if x0.size and not np.isfinite(x0).all():
        raise NonFiniteDataError("x0 contains non-finite entries")

    x = hard_threshold(x0, inst.s)
    L = largest_eigenvalue_gram(inst.A)
    # The computed norm may round a hair below lambda_max; the margin keeps
    # the step at most 1/lambda_max so descent stays monotone.
    L *= 1.0 + 1e-9

    iterations = 0
    final_step = 0.0
    step_met = L <= 0.0  # zero Gram matrix: no step is ever taken
    for _ in range(0 if step_met else MAX_ITER):
        g = gradient(inst, x)
        x_next = hard_threshold(x - g / L, inst.s)
        final_step = float(np.linalg.norm(x_next - x))
        threshold = STEP_TOL * (1.0 + float(np.linalg.norm(x)))
        x = x_next
        iterations += 1
        if final_step <= threshold:
            step_met = True
            break

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
