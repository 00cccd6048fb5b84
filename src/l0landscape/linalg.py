"""Small dense linear algebra kernels.

Column-submatrix least squares, singular-value based rank decisions, and the
largest Gram eigenvalue.  Everything is a pure function of its inputs.  The
solver takes an ``(N, m, k)`` stack of same-size column submatrices, which is
validated once, whose ``N`` solves one call of numpy's stacked least-squares
kernel makes and whose ranks the singular values of those solves decide.
``_rank`` is the one rank rule, for the solver and for ``numerical_rank``
alike.  Target scale is desk-sized problems (m, n up to a few dozen), so all
routines favour robustness over asymptotics.
"""

from __future__ import annotations

import numpy as np
# The gufunc behind ``np.linalg.lstsq`` (numpy >= 2.0), which the public
# wrapper only calls on one matrix at a time.
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatchError, NonFiniteDataError


def default_rank_tol(rows: int, cols: int) -> float:
    """Default relative rank tolerance for a matrix of the given shape."""
    return 1e-10 * max(rows, cols, 1)


def _as_finite(a, ndims: tuple[int, ...], name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim not in ndims:
        dims = " or ".join(map(str, ndims))
        raise DimensionMismatchError(f"{name} must be {dims}-dimensional, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise NonFiniteDataError(f"{name} contains non-finite entries")
    return a


def _rank(sigma: np.ndarray, rank_tol: float) -> np.ndarray:
    """Per row of descending singular values, how many exceed ``rank_tol * sigma_max``."""
    if not rank_tol >= 0:
        raise ValueError(f"rank_tol must be nonnegative, got {rank_tol}")
    # A threshold that overflows is exceeded by no singular value, as its
    # exact value would be.
    with np.errstate(over="ignore"):
        return np.count_nonzero(sigma > rank_tol * sigma[..., :1], axis=-1)


def numerical_rank(M, rank_tol: float) -> int | np.ndarray:
    """Numerical rank of ``M`` from its singular values.

    Counts singular values above ``rank_tol * sigma_max``; the threshold is
    relative, so the result is invariant under nonzero scaling of ``M``.
    A matrix with ``sigma_max == 0`` (or an empty matrix) has rank 0, since
    no singular value then exceeds the threshold.  A single ``(m, k)``
    matrix gives an ``int``; an ``(N, m, k)`` stack gives the array of its
    ``N`` ranks, all from one stacked SVD.
    """
    M = _as_finite(M, (2, 3), "matrix")
    ranks = _rank(np.linalg.svd(M, compute_uv=False), rank_tol)
    return int(ranks) if M.ndim == 2 else ranks


def _raise_svd_failure(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def solve_normal_equations(stack, b, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of ``min_z ||A_S z - b||`` and ranks of the ``A_S`` in an ``(N, m, k)`` stack.

    Row ``i`` of the ``(N, k)`` solutions is the ``np.linalg.lstsq`` solution
    on ``stack[i]`` with cutoff ``rank_tol``, bit for bit: one LAPACK
    ``gelsd`` (an SVD, never explicitly formed normal equations) per matrix,
    all in one call of the gufunc behind that wrapper.  It is the unique
    solution under full column rank, else the minimum-norm one.  The ``(N,)``
    ranks are ``numerical_rank``'s, counted on the singular values ``gelsd``
    computed, so full rank (``ranks == k``) costs no second SVD.  They are
    not the ranks ``lstsq`` reports, which LAPACK counts above machine
    epsilon for a cutoff of 0 or of 1 and above.  An SVD that does not
    converge raises ``LinAlgError``, as the wrapper does.
    """
    stack = _as_finite(stack, (3,), "stack")
    b = _as_finite(b, (1,), "b")
    if stack.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"stack has {stack.shape[1]} rows but b has length {b.shape[0]}")
    with np.errstate(call=_raise_svd_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        Z, _, _, sigma = _umath_linalg.lstsq(stack, b[:, None], rank_tol, signature="ddd->ddid")
    if stack.shape[1] == 0:
        Z[...] = 0.0  # LAPACK leaves the solution of no equations unset
    return Z[..., 0], _rank(sigma, rank_tol)


def largest_eigenvalue_gram(A) -> float:
    """Largest eigenvalue of ``A.T @ A``, the squared spectral norm of ``A``."""
    A = _as_finite(A, (2,), "matrix")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise DimensionMismatchError("matrix must have at least one row and one column")
    return float(np.linalg.norm(A, 2) ** 2)
