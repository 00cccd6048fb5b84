"""Small dense linear algebra kernels.

Column-submatrix least squares, singular-value based rank decisions, and the
largest Gram eigenvalue.  Everything is a pure function of its inputs.
Target scale is desk-sized problems (m, n up to a few dozen), so all
routines favour robustness over asymptotics.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteDataError


def default_rank_tol(rows: int, cols: int) -> float:
    """Default relative rank tolerance for a matrix of the given shape."""
    return 1e-10 * max(rows, cols, 1)


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise NonFiniteDataError(f"{name} contains non-finite entries")
    return M


def _as_vector(v, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if v.size and not np.isfinite(v).all():
        raise NonFiniteDataError(f"{name} contains non-finite entries")
    return v


def numerical_rank(M, rank_tol: float) -> int:
    """Numerical rank of ``M`` from its singular values.

    Counts singular values above ``rank_tol * sigma_max``; the threshold is
    relative, so the result is invariant under nonzero scaling of ``M``.
    A matrix with ``sigma_max == 0`` (or an empty matrix) has rank 0.
    """
    M = _as_matrix(M)
    if rank_tol < 0:
        raise ValueError(f"rank_tol must be nonnegative, got {rank_tol}")
    if min(M.shape) == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    smax = float(sigma[0])
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rank_tol * smax))


def solve_normal_equations(A_S, b, rank_tol: float) -> tuple[np.ndarray, bool]:
    """Least-squares solution of ``min_z ||A_S z - b||``.

    Parameters
    ----------
    A_S : array_like, shape (m, k)
        Column submatrix of the sensing matrix.
    b : array_like, shape (m,)
        Measurement vector.
    rank_tol : float
        Relative singular-value threshold used both for the full-rank
        decision and as the ``lstsq`` cutoff.

    Returns
    -------
    (z, full_rank)
        ``z`` is the unique least-squares solution when ``A_S`` has full
        column rank, otherwise the minimum-norm least-squares solution with
        ``full_rank = False``.  ``full_rank`` is decided by
        :func:`numerical_rank`, the one rank rule of the package, and not by
        the rank ``lstsq`` reports: LAPACK replaces a cutoff of 0 or of 1 and
        above by machine epsilon, so its count follows a different rule for
        those tolerances.  The solve goes through an orthogonal factorization
        (SVD), never through explicitly formed normal equations.
    """
    A_S = _as_matrix(A_S, "A_S")
    b = _as_vector(b, "b")
    if A_S.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"A_S has {A_S.shape[0]} rows but b has length {b.shape[0]}"
        )
    k = A_S.shape[1]
    if k == 0:
        return np.zeros(0), True
    full_rank = numerical_rank(A_S, rank_tol) == k
    z, _, _, _ = np.linalg.lstsq(A_S, b, rcond=rank_tol)
    return z, full_rank


def largest_eigenvalue_gram(A) -> float:
    """Largest eigenvalue of ``A.T @ A``, the squared spectral norm of ``A``."""
    A = _as_matrix(A)
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise DimensionMismatchError("matrix must have at least one row and one column")
    return float(np.linalg.norm(A, 2) ** 2)
