"""M-stationarity margins, nondegeneracy certificates, classification.

A feasible point is M-stationary when the gradient ``A.T (A x - b)`` vanishes
on its support.  Nondegeneracy combines two conditions:

ND1
    whenever the sparsity constraint is inactive (``||x||_0 < s``), every
    gradient entry on the off-support indices is bounded away from zero;
ND2
    the sensing matrix restricted to the support columns has full column rank.

Nondegenerate points are classified by their sparsity level: full support
means local minimizer, support size ``s - 1`` means saddle point, anything
smaller is a lower-order stationary point.  Points failing ND1 or ND2, or on
a continuum of stationary points, are degenerate, with no minimizer/saddle
label; a point's ``kind`` is its one degeneracy verdict.

The points classified here are least-squares solves of their supports, so
they are M-stationary by construction.  A point is its support-table entry,
a :class:`SupportSubspace`.  The table takes its margins from
:func:`point_margins`, which reduces the gradients of all points of one
support size at once and keeps no gradient, and its verdicts from
:func:`classify`, once per block; the stationarity residual is reported but
never gated on.  IHT reads its final iterate's residual from the same
function: one M-stationarity rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Instance, Support, residual, support_to_json


class PointKind(str, Enum):
    LOCAL_MINIMIZER = "LocalMinimizer"
    SADDLE_POINT = "SaddlePoint"
    LOWER_ORDER = "LowerOrderStationary"
    DEGENERATE = "DegeneratePoint"


@dataclass(frozen=True, eq=False)
class SupportSubspace:
    """One support's subspace minimum and, on a fixpoint, the point it is.

    ``x`` minimizes the objective on the coordinate subspace of ``support``,
    with objective ``value``; ``nd2_holds`` is the support's full-rank
    verdict.  A ``fixpoint``'s coefficients all exceed ``zero_tol``, so ``x``
    is a point with exactly this support; only fixpoints set the last five
    fields.  ``nd1_min_abs``, the ND1 margin, is the smallest off-support
    gradient magnitude, infinite when ``|support| == s`` makes ND1 vacuous;
    ``nd1_near_degenerate`` flags a failed margin within ``(0, stat_tol]``,
    numerical noise of a pass.  ``kind`` is degenerate on a continuum even
    when both checks hold.
    """

    support: Support
    x: np.ndarray
    value: float
    fixpoint: bool
    nd2_holds: bool
    stationarity_residual: float | None = None
    nd1_min_abs: float | None = None
    nd1_holds: bool | None = None
    nd1_near_degenerate: bool | None = None
    kind: PointKind | None = None

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "support": support_to_json(self.support),
            "kind": self.kind.value,
            "value": self.value,
            "nd1": self.nd1_holds,
            "nd2": self.nd2_holds,
            "nd1_near_degenerate": self.nd1_near_degenerate,
        }


@dataclass(frozen=True)
class CellAttachment:
    """Number and dimension of cells glued when a level sweep crosses a point."""

    cell_count: int
    cell_dim: int


def gradient(inst: Instance, x) -> np.ndarray:
    """Gradient ``A.T (A x - b)`` at ``x``, or at each row of an ``(N, n)`` stack of points."""
    return np.matmul(inst.A.T, residual(inst, x)[..., None])[..., 0]


def point_margins(inst: Instance, supports: np.ndarray,
                  X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationarity residuals and ND1 margins of points with one support size k.

    Row ``i`` of the ``(P, n)`` block ``X`` is a point on the support in row
    ``i`` of the ``(P, k)`` index array ``supports``.  Their gradients come
    from one stacked product, bit for bit those of :func:`gradient` one point
    at a time, and are reduced at once: the residual is the largest gradient
    magnitude on the support (0 when it is empty), the ND1 margin the
    smallest off it, infinite when ``k == s`` makes ND1 vacuous.
    """
    G = np.abs(gradient(inst, X))
    on = np.zeros(G.shape, dtype=bool)
    on[np.arange(len(G))[:, None], supports] = True
    resid = G.max(axis=1, where=on, initial=0.0)
    if supports.shape[1] == inst.s:
        return resid, np.full(len(G), math.inf)
    return resid, G.min(axis=1, where=~on, initial=math.inf)


def classify(inst: Instance, k: int, nd2: np.ndarray,
             nd1_min_abs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ND1 verdicts, near-degenerate flags and kinds of points with support size k.

    ``nd2`` and ``nd1_min_abs`` hold the points' rank verdicts and ND1
    margins.  ND1 uses a strict threshold: entries must exceed ``stat_tol``
    in absolute value.  A smallest magnitude in ``(0, stat_tol]`` is a
    failure with the near-degenerate warning set, since floating point
    cannot certify exact nonvanishing.  A point is degenerate when ND1 or
    ND2 fails; the support table also makes a point on a continuum
    degenerate.  The kinds are ``PointKind`` objects in an object array;
    ``np.where`` would turn this ``str`` enum into numpy strings.
    """
    nd1 = nd1_min_abs > inst.tol.stat_tol
    kind = (PointKind.LOCAL_MINIMIZER if k == inst.s else
            PointKind.SADDLE_POINT if k == inst.s - 1 else PointKind.LOWER_ORDER)
    kinds = np.array([kind] * len(nd1), dtype=object)
    kinds[~(nd1 & nd2)] = PointKind.DEGENERATE
    return nd1, ~nd1 & (nd1_min_abs > 0.0), kinds


def cell_attachment(n: int, s: int, k: int) -> CellAttachment:
    """Cells attached when crossing a stationary value at sparsity level ``k``.

    Crossing a point with ``k`` nonzeros attaches ``C(n - k - 1, s - k)``
    cells of dimension ``s - k``; a full-support point attaches a single
    zero-dimensional cell, which is what creates a new component.
    """
    if not (isinstance(n, int) and isinstance(s, int) and isinstance(k, int)):
        raise ValueError("n, s, k must be integers")
    if not 0 <= k <= s <= n - 1:
        raise ValueError(f"arguments must satisfy 0 <= k <= s <= n-1, got n={n}, s={s}, k={k}")
    return CellAttachment(cell_count=math.comb(n - k - 1, s - k), cell_dim=s - k)
