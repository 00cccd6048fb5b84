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
The M-stationarity test and the direct ND1 vector are written from their
definitions through the public gradient and stationarity residual.  The
errors these oracles raise for a rank-deficient matrix or a non-stationary
point are defined here, since nothing in the package raises them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from l0landscape import (
    FeasiblePoint,
    Instance,
    L0LandscapeError,
    PointKind,
    classify,
    complement_of,
    enumerate_stationary,
    gradient,
    stationarity_residual,
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
             if table[S].min_value <= bound]
    if not nodes:
        return 0
    adjacency = np.array([
        [table[tuple(sorted(set(S) & set(T)))].min_value <= bound for T in nodes]
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


def nd1_vector_projection(inst: Instance, point: FeasiblePoint) -> np.ndarray:
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


def is_m_stationary(inst: Instance, point: FeasiblePoint) -> bool:
    """Whether the gradient vanishes on the support, up to ``stat_tol``."""
    return stationarity_residual(inst, point) <= inst.tol.stat_tol


def nd1_vector_direct(inst: Instance, point: FeasiblePoint) -> np.ndarray:
    """Gradient entries on the off-support indices, in increasing index order.

    Returned for any stationarity level; raises ``NotStationaryError`` unless
    the point is M-stationary.
    """
    resid = stationarity_residual(inst, point)
    if resid > inst.tol.stat_tol:
        raise NotStationaryError(
            f"stationarity residual {resid:.3e} exceeds stat_tol {inst.tol.stat_tol:.3e}"
        )
    return gradient(inst, point.x)[list(complement_of(point.support, inst.n))]


def near_points_by_enumeration(inst: Instance, x_bar, r: float) -> list[np.ndarray]:
    """Points of the full enumeration within ``r`` of ``x_bar``, in report order."""
    return [p.point.x for p in enumerate_stationary(inst).points
            if np.linalg.norm(p.point.x - x_bar) <= r]


def min_gap_pairwise(points) -> float:
    """Smallest Euclidean distance over all pairs of the given vectors."""
    return min(float(np.linalg.norm(a - b)) for a, b in itertools.combinations(points, 2))


def kinds_by_chasing_every_entry(inst: Instance) -> tuple[set, bool]:
    """Every point's ``(support, kind)`` and the continuum flag, from every table entry.

    Each entry's solve is followed through the map ``S -> support_of(argmin(S))``
    until the support stops changing; the supports reached are the points, and
    one reached from any rank-deficient entry is degenerate.  The continuum
    flag is set when any entry is rank deficient.
    """
    table = support_min_table(inst)
    finals: dict = {}
    for S, sub in table.items():
        U = S
        while (V := support_of(table[U].argmin, inst.tol.zero_tol)) != U:
            U = V
        finals[U] = finals.get(U, False) or not sub.full_rank
    kinds = set()
    for U, deficient in finals.items():
        kind = classify(inst, FeasiblePoint(table[U].argmin, U), table[U].full_rank).kind
        kinds.add((U, PointKind.DEGENERATE if deficient else kind))
    return kinds, any(finals.values())
