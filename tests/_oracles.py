"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: least-squares minima come
from grid refinement, gradients from central finite differences, eigenvalues
from a full SVD, and level-set component counts from a flood fill over dense
per-stratum grids glued along shared coordinate subspaces, or from the
all-pairs intersection graph of the support pieces.  Two closed forms
check the solver and the ND1 certificate: the pseudoinverse of a
full-column-rank matrix applied through its thin SVD, and the ND1 vector
written with the orthogonal projector onto the support column span.  The
probe's localized search is checked against a filter over the full
enumeration, and its default radius against the plain all-pairs minimum gap.
The enumerator's degenerate points are checked against a chase of every
table entry, not only the rank-deficient ones, to its fixpoint.
The stationarity residual, the M-stationarity test and the direct ND1
vector are written from their definitions, one point at a time, through the
public gradient; the package takes residuals from a stacked kernel.  The
errors these oracles raise for a rank-deficient matrix or a non-stationary
point are defined here, since nothing in the package raises them.
:func:`exact_table` solves every support in exact rational arithmetic on
the binary64 data, with no tolerance at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from l0landscape import (
    Instance,
    L0LandscapeError,
    PointKind,
    complement_of,
    enumerate_stationary,
    gradient,
    support_min_table,
    support_of,
)
from l0landscape.levelsets import LEVEL_BAND_REL


class RankDeficiencyError(L0LandscapeError):
    """An operation required full column rank but the matrix does not have it."""


class NotStationaryError(L0LandscapeError):
    """An operation required an M-stationary point but the residual is too large."""


def grid_refine_min(A, b, radius: float | None = None, levels: int = 45,
                    points_per_dim: int = 11) -> np.ndarray:
    """Brute-force least-squares minimizer over a shrinking dense grid."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A.shape[1]
    if k == 0:
        return np.zeros(0)
    if radius is None:
        sigma_min = float(np.linalg.svd(A, compute_uv=False)[-1])
        radius = float(np.linalg.norm(b)) / max(sigma_min, 1e-12) + 1.0
    center = np.zeros(k)
    half = radius
    best = center
    for _ in range(levels):
        axes = [np.linspace(c - half, c + half, points_per_dim) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        Z = np.stack([g.ravel() for g in grids], axis=1)
        vals = ((Z @ A.T - b) ** 2).sum(axis=1)
        best = Z[int(np.argmin(vals))]
        center = best
        # keep two grid cells of slack around the incumbent
        half *= 4.0 / (points_per_dim - 1)
    return best


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def grid_components(inst: Instance, level: float, step: float = 0.01,
                    radius: float | None = None) -> int:
    """Connected components of the feasible lower level set by flood fill.

    Builds one dense s-dimensional grid per size-s support, masks the points
    with objective at or below the level, labels components per grid with
    face adjacency, then merges labels across grids along their shared
    coordinate subspaces (where intersections of strata live).
    """
    import scipy.ndimage as ndi

    A, b, n, s = inst.A, inst.b, inst.n, inst.s
    if s == 0:
        return 1 if 0.5 * float(b @ b) <= level else 0
    if radius is None:
        radius = 2.0 * (1.0 + float(np.linalg.norm(b)))
    k = int(math.ceil(radius / step))
    coords = np.arange(-k, k + 1) * step  # exact zero at index k
    center = coords.size // 2

    strata = list(itertools.combinations(range(n), s))
    labels: dict[tuple, np.ndarray] = {}
    counts: dict[tuple, int] = {}
    for S in strata:
        axes = np.meshgrid(*([coords] * s), indexing="ij")
        Z = np.stack([g.ravel() for g in axes], axis=1)
        resid = Z @ A[:, list(S)].T - b
        F = 0.5 * (resid ** 2).sum(axis=1)
        mask = (F <= level).reshape([coords.size] * s)
        lab, num = ndi.label(mask)
        labels[S] = lab
        counts[S] = num

    ids: dict[tuple, int] = {}
    for S in strata:
        for lbl in range(1, counts[S] + 1):
            ids[(S, lbl)] = len(ids)
    parent = list(range(len(ids)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for S, T in itertools.combinations(strata, 2):
        shared = set(S) & set(T)
        idx_S = tuple(slice(None) if S[d] in shared else center for d in range(s))
        idx_T = tuple(slice(None) if T[d] in shared else center for d in range(s))
        ls = np.atleast_1d(labels[S][idx_S])
        lt = np.atleast_1d(labels[T][idx_T])
        both = (ls > 0) & (lt > 0)
        if not both.any():
            continue
        pairs = np.unique(
            np.stack([ls[both], lt[both]], axis=-1).reshape(-1, 2), axis=0
        )
        for a_lbl, b_lbl in pairs:
            union(ids[(S, int(a_lbl))], ids[(T, int(b_lbl))])

    return len({find(i) for i in range(len(ids))})


def pairwise_components(inst: Instance, level: float, table) -> int:
    """Components of the all-pairs intersection graph of the size-s pieces.

    The nodes are the size-s supports whose subspace minimum (read from
    ``table``) is inside the level; ``S`` and ``T`` are adjacent when the
    minimum over ``S & T`` is inside it too.  Inside means at most
    ``level + LEVEL_BAND_REL * (1 + |level|)``.
    """
    from scipy.sparse.csgraph import connected_components

    bound = level + LEVEL_BAND_REL * (1.0 + abs(level))
    nodes = [S for S in itertools.combinations(range(inst.n), inst.s)
             if table[S].value <= bound]
    if not nodes:
        return 0
    adjacency = np.array([
        [table[tuple(sorted(set(S) & set(T)))].value <= bound for T in nodes]
        for S in nodes
    ])
    return int(connected_components(adjacency, directed=False)[0])


def random_instance(rng, m: int, n: int, s: int, tol=None,
                    min_sigma: float = 0.0, max_b_norm: float | None = None) -> Instance:
    """Gaussian instance, optionally filtered for submatrix conditioning."""
    while True:
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        if max_b_norm is not None and np.linalg.norm(b) > max_b_norm:
            continue
        if min_sigma > 0.0 and s > 0:
            worst = min(
                float(np.linalg.svd(A[:, list(S)], compute_uv=False)[-1])
                for S in itertools.combinations(range(n), s)
            )
            if worst < min_sigma:
                continue
        return Instance.from_arrays(A, b, s, tol)


def landscape_instance(shape, variant, seed):
    """Gaussian instance, or its zero-column or duplicate-column variant."""
    m, n, s = shape
    inst = random_instance(np.random.default_rng((seed, m, n, s)), m, n, s)
    A = inst.A.copy()
    if variant == "zero-column":
        A[:, 0] = 0.0
    elif variant == "duplicate-column":
        A[:, -1] = A[:, 0]
    return Instance.from_arrays(A, inst.b, s)


LANDSCAPES = [(shape, variant, seed)
              for shape in [(4, 7, 2), (5, 8, 3), (3, 5, 2)]
              for variant in ["generic", "zero-column", "duplicate-column"]
              for seed in range(2)]


def min_relative_value_gap(values) -> float:
    """Smallest relative gap between consecutive sorted values."""
    ordered = sorted(values)
    if len(ordered) < 2:
        return math.inf
    return min(
        (hi - lo) / (1.0 + abs(hi)) for lo, hi in zip(ordered, ordered[1:])
    )


def pseudoinverse_apply(A_S, b) -> np.ndarray:
    """Apply the Moore-Penrose inverse of a full-column-rank matrix to ``b``.

    Goes through the thin SVD ``A_S = U diag(sigma) V^T``, so the result is
    ``V diag(1/sigma) U^T b``.  Raises ``RankDeficiencyError`` unless every
    singular value exceeds ``1e-10 * max(m, k) * sigma_max``.
    """
    A_S = np.asarray(A_S, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A_S.shape[1]
    if k == 0:
        return np.zeros(0)
    U, sigma, Vt = np.linalg.svd(A_S, full_matrices=False)
    if sigma.size < k or sigma[-1] <= 1e-10 * max(A_S.shape) * sigma[0]:
        raise RankDeficiencyError(
            f"matrix of shape {A_S.shape} does not have full column rank"
        )
    return Vt.T @ ((U.T @ b) / sigma)


def nd1_vector_projection(inst: Instance, point) -> np.ndarray:
    """ND1 vector via the orthogonal projector onto the support column span.

    Writes the stationary point in closed form and substitutes, giving
    ``-((I - A_S A_S^+) A_{S^c}).T b`` with ``S`` the support, for comparison
    with the gradient entries off the support at an M-stationary point.
    Raises ``RankDeficiencyError`` when ``A_S`` lacks full column rank; for
    an empty support the projector is the zero map and the expression
    reduces to ``-A.T b`` on all indices.
    """
    A_S = inst.A[:, list(point.support)]
    projected_b = A_S @ pseudoinverse_apply(A_S, inst.b)
    comp = complement_of(point.support, inst.n)
    return -(inst.A[:, list(comp)].T @ (inst.b - projected_b))


def stationarity_residual(inst: Instance, x, support) -> float:
    """Max-norm of the gradient at ``x`` restricted to ``support`` (0 for empty support)."""
    g = gradient(inst, x)
    return float(np.max(np.abs(g[list(support)]), initial=0.0))


def is_m_stationary(inst: Instance, point) -> bool:
    """Whether the gradient vanishes on the support, up to ``stat_tol``."""
    return stationarity_residual(inst, point.x, point.support) <= inst.tol.stat_tol


def nd1_vector_direct(inst: Instance, point) -> np.ndarray:
    """Gradient entries on the off-support indices, in increasing index order.

    Returned for any stationarity level; raises ``NotStationaryError`` unless
    the point is M-stationary.
    """
    resid = stationarity_residual(inst, point.x, point.support)
    if resid > inst.tol.stat_tol:
        raise NotStationaryError(
            f"stationarity residual {resid:.3e} exceeds stat_tol {inst.tol.stat_tol:.3e}"
        )
    return gradient(inst, point.x)[list(complement_of(point.support, inst.n))]


def near_points_by_enumeration(inst: Instance, x_bar, r: float) -> list[np.ndarray]:
    """Points of the full enumeration within ``r`` of ``x_bar``, in report order."""
    return [p.x for p in enumerate_stationary(inst).points
            if np.linalg.norm(p.x - x_bar) <= r]


def min_gap_pairwise(points) -> float:
    """Smallest Euclidean distance over all pairs of the given vectors."""
    return min(float(np.linalg.norm(a - b)) for a, b in itertools.combinations(points, 2))


def kinds_by_chasing_every_entry(inst: Instance) -> tuple[set, bool]:
    """Every point's ``(support, kind)`` and the continuum flag, from every table entry.

    Each entry's solve is followed through the map ``S -> support_of(argmin(S))``
    until the support stops changing; the supports reached are the points, and
    one reached from any rank-deficient entry is degenerate.  The continuum
    flag is set when any entry is rank deficient.  The other kinds follow
    from the points' ND1 and ND2 verdicts and support sizes; the table's own
    ``kind`` is never read.
    """
    table = support_min_table(inst)
    finals: dict = {}
    for S, sub in table.items():
        U = S
        while (V := support_of(table[U].x, inst.tol.zero_tol)) != U:
            U = V
        finals[U] = finals.get(U, False) or not sub.nd2_holds
    local = {inst.s: PointKind.LOCAL_MINIMIZER, inst.s - 1: PointKind.SADDLE_POINT}
    kinds = set()
    for U, deficient in finals.items():
        nondegenerate = table[U].nd1_holds and table[U].nd2_holds and not deficient
        kinds.add((U, local.get(len(U), PointKind.LOWER_ORDER) if nondegenerate
                   else PointKind.DEGENERATE))
    return kinds, any(finals.values())


@dataclass(frozen=True)
class ExactSupport:
    """Exact facts about the least-squares problem of one support ``S``.

    ``gram_det`` is ``det(A_S^T A_S)`` and ``frobenius_sq`` is
    ``||A_S||_F^2``.  ``min_norm`` is the minimum-norm solve on ``S``, for
    every support.  Under full column rank, ``coefficients`` is that solve,
    then unique, ``value`` its objective and ``off_gradient`` the gradient
    entries off ``S`` in increasing index order; otherwise all three are
    ``None``.
    """

    rank: int
    gram_det: Fraction
    frobenius_sq: Fraction
    min_norm: tuple[Fraction, ...]
    coefficients: tuple[Fraction, ...] | None
    value: Fraction | None
    off_gradient: tuple[Fraction, ...] | None


def _dot(u, w) -> Fraction:
    return sum((a * b for a, b in zip(u, w)), Fraction(0))


def _eliminate(G: list[list[Fraction]], c: list[Fraction]):
    """Rank, determinant and minimum-norm solution of the consistent ``G z = c``, exactly.

    Gauss-Jordan elimination gives the reduced row echelon form.  Setting the
    free variables to 0 gives a particular solution; each free variable also
    gives one null-space vector, and subtracting the particular solution's
    projection onto their span leaves the minimum-norm solution.
    """
    k = len(G)
    M = [row[:] + [ci] for row, ci in zip(G, c)]
    det, pivots = Fraction(1), []
    for col in range(k):
        rank = len(pivots)
        pivot = next((r for r in range(rank, k) if M[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            det = -det
        det *= M[rank][col]
        for r in range(k):
            if r != rank and M[r][col] != 0:
                f = M[r][col] / M[rank][col]
                M[r] = [a - f * p for a, p in zip(M[r], M[rank])]
        pivots.append(col)
    z = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        z[col] = M[r][k] / M[r][col]
    free = [col for col in range(k) if col not in pivots]
    if free:
        N = []
        for f in free:
            v = [Fraction(0)] * k
            v[f] = Fraction(1)
            for r, col in enumerate(pivots):
                v[col] = -M[r][f] / M[r][col]
            N.append(v)
        _, _, y = _eliminate([[_dot(u, w) for w in N] for u in N], [_dot(u, z) for u in N])
        z = [zi - sum((yj * v[i] for yj, v in zip(y, N)), Fraction(0)) for i, zi in enumerate(z)]
    return len(pivots), det, tuple(z)


def exact_table(A, b, s: int) -> dict[tuple[int, ...], ExactSupport]:
    """Every support of size at most ``s``, solved exactly on the binary64 data.

    Each float is an exact rational, so the normal equations
    ``A_S^T A_S z = A_S^T b`` are formed and eliminated with
    :class:`fractions.Fraction` without rounding; the rank of ``A_S`` is that
    of its Gram matrix.  At the solve, the value is
    ``(||b||^2 - (A_S^T b)^T z) / 2`` and the gradient is
    ``A^T A x - A^T b``.  A rank-deficient support gets the minimum-norm
    solve of its normal equations, whose null space is that of ``A_S``.
    Meant for ``n <= 7`` and ``s <= 3``.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if n > 7 or s > 3:
        raise ValueError(f"exact_table is meant for n <= 7 and s <= 3, got n={n}, s={s}")
    Af = [[Fraction(v) for v in row] for row in A.tolist()]
    bf = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]
    gram = [[sum((Af[r][i] * Af[r][j] for r in range(m)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    atb = [sum((Af[r][i] * bf[r] for r in range(m)), Fraction(0)) for i in range(n)]
    btb = sum((v * v for v in bf), Fraction(0))
    table = {}
    for k in range(s + 1):
        for S in itertools.combinations(range(n), k):
            G = [[gram[i][j] for j in S] for i in S]
            rank, det, z = _eliminate(G, [atb[i] for i in S])
            fro = sum((gram[i][i] for i in S), Fraction(0))
            coefficients = value = off = None
            if rank == k:
                coefficients = z
                value = (btb - sum((atb[i] * zi for i, zi in zip(S, z)), Fraction(0))) / 2
                off = tuple(sum((gram[j][i] * zi for i, zi in zip(S, z)), Fraction(0)) - atb[j]
                            for j in range(n) if j not in S)
            table[S] = ExactSupport(rank, det, fro, z, coefficients, value, off)
    return table
