"""Exhaustive M-stationary-point enumeration and landscape reporting.

Every support of size at most ``s`` is solved once by least squares on its
column submatrix; the points, their ND2 verdicts, the s-regularity verdict
and the level sweep are all read from that one table.  It is built one
support size at a time, in blocks of at most ``_BLOCK`` supports, in a few
stacked calls rather than numpy calls per support: one call of numpy's
least-squares gufunc gives a block's argmins and, from the singular values of
the same LAPACK ``gelsd`` that solves each support, their ranks; one stacked
``objective`` gives their values, one stacked ``gradient`` over the block's
fixpoints gives, through ``point_margins``, each point's stationarity
residual and ND1 margin, and one ``classify`` call their verdicts; no
gradient is kept.  Each solution is M-stationary by construction because its
gradient vanishes on the solved support, which contains the solution's own
support.  Two solutions are the same point exactly when their supports
under ``zero_tol`` agree, so the points are the fixpoints, the supports whose
solve has exactly that support.  A solve vanishes off its support, so those
are the supports all of whose solved coefficients exceed ``zero_tol``: one
mask per block.  ``_fixpoints`` alone selects them, in report order, for the
enumerator and the stability probe.  A point is its table entry, so its
value, margins, verdicts and report order all come from its one solve:
``report.table[p.support] is p``.  Rank-deficient solves certify a continuum
of stationary points; ``support_min_table`` makes the point each one chases
to degenerate, so every table carries final kinds.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .linalg import numerical_rank, solve_normal_equations
from .model import (
    Instance,
    Support,
    ToleranceConfig,
    instance_to_dict,
    objective,
    support_of,
    support_to_json,
    validate_instance,
)
from .stationarity import PointKind, SupportSubspace, classify, point_margins
from .util import integer, rng_for

logger = logging.getLogger(__name__)

# Relative tolerance for detecting ties among stationary values.
VALUE_TIE_REL = 1e-9

# Supports per stacked call.  Larger blocks leave the per-support cost where
# it is but make the temporaries of the largest sizes (the (N, m, k) stack,
# the values' and gradients' products) tens of MB, which the allocator then
# keeps: peak RSS at (14, 20, 7) rose by about 40 MB without blocks.
_BLOCK = 4096


@dataclass
class LandscapeReport:
    """Full enumeration result for one instance.

    ``r`` counts local minimizers, ``r1`` saddle points.  The Morse relation
    compares ``morse_lhs = (n - s) * r1`` against ``morse_rhs = r - 1``; it is
    guaranteed only when the matrix is s-regular, all points are nondegenerate,
    and stationary values are pairwise distinct, so ``hypothesis_violated``
    records whenever any of that fails (the verdict is still computed).  Under
    that hypothesis every support of size at most s is a point, so
    ``r = C(n, s)``, ``r1 = C(n, s - 1)``, ``lower_order`` is the sum of
    ``C(n, k)`` over ``k < s - 1`` and the relation holds by arithmetic; the
    data decide only the order of the values, which ``sweep_levels`` audits.
    ``table`` holds the subspace minimum of every support of size at most s
    that the report was derived from; it is not serialized.  The points are
    its fixpoint entries themselves: ``table[p.support] is p``.
    """

    points: list[SupportSubspace]
    r: int
    r1: int
    lower_order: int
    degenerate: int
    s_regular: bool
    s_regularity_witness: Support | None
    morse_lhs: int
    morse_rhs: int
    morse_holds: bool
    continuum_detected: bool
    hypothesis_violated: bool
    table: dict[Support, SupportSubspace] = field(repr=False)

    def to_dict(self) -> dict:
        """Every field but ``table``, in field order; ``asdict`` would copy the table."""
        d = self.to_records()
        d["points"] = [p.to_dict() for p in self.points]
        return d

    def to_records(self) -> dict:
        """``to_dict`` with the points as the records themselves, for ``writer.dumps``."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "table"}
        d["s_regularity_witness"] = support_to_json(self.s_regularity_witness)
        return d


@dataclass
class GenericityReport:
    """Monte-Carlo outcome over random Gaussian data."""

    trials: int
    all_nondegenerate_fraction: float
    minimizers_active_fraction: float
    s_regular_fraction: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def enumerate_supports(n: int, s: int) -> Iterator[Support]:
    """All subsets of {0, ..., n-1} with at most s elements, in (size, lex) order."""
    if not 0 <= s <= n:
        raise ValidationError(f"need 0 <= s <= n, got n={n}, s={s}")
    for k in range(s + 1):
        yield from itertools.combinations(range(n), k)


def _s_regularity(verdicts: Iterable[tuple[Support, bool]]) -> tuple[bool, Support | None]:
    """s-regular unless a size-s support lacks full rank; the witness is the lex-first one."""
    witness = next((S for S, full in verdicts if not full), None)
    return witness is None, witness


def _column_stack(A: np.ndarray, supports: np.ndarray | list[Support]) -> np.ndarray:
    """The ``(N, m, k)`` stack of the submatrices ``A[:, S]`` of N supports of one size k."""
    return A.T[np.asarray(supports, dtype=int)].transpose(0, 2, 1)


def check_s_regularity(inst: Instance) -> tuple[bool, Support | None]:
    """Whether every size-s column subset of ``inst.A`` has rank s; returns the first failure."""
    validate_instance(inst)
    supports = list(itertools.combinations(range(inst.n), inst.s))
    ranks = numerical_rank(_column_stack(inst.A, supports), inst.tol.rank_tol)
    return _s_regularity(zip(supports, ranks == inst.s))


def _solve_supports(inst: Instance, supports: Iterable[Support],
                    margins: bool = True) -> list[SupportSubspace]:
    """Subspace minima of supports in size order.

    Per block of at most ``_BLOCK`` supports of one size, a few stacked
    calls: one least-squares gufunc call for the solves and, from their own
    singular values, the ranks; the argmins as the rows of one ``(N, n)``
    block, one stacked ``objective`` for the values and one fixpoint mask.
    With ``margins``, the fixpoints' gradient margins come from one
    ``point_margins`` call and their verdicts from one ``classify`` call;
    without, they stay ``None``.
    """
    subs = []
    for k, group in itertools.groupby(supports, key=len):
        group = list(group)
        for block in (group[i:i + _BLOCK] for i in range(0, len(group), _BLOCK)):
            index = np.array(block, dtype=int).reshape(len(block), k)
            stack = _column_stack(inst.A, index)
            Z, ranks = solve_normal_equations(stack, inst.b, inst.tol.rank_tol)
            full_rank = ranks == k
            fixpoint = (np.abs(Z) > inst.tol.zero_tol).all(axis=1)
            X = np.zeros((len(block), inst.n))
            X[np.arange(len(block))[:, None], index] = Z
            point = np.full((5, len(block)), None)
            if margins:
                resid, nd1 = point_margins(inst, index[fixpoint], X[fixpoint])
                point[:, fixpoint] = (resid, nd1, *classify(inst, k, full_rank[fixpoint], nd1))
            subs += [SupportSubspace(*entry) for entry in zip(
                block, X, objective(inst, X).tolist(), fixpoint.tolist(), full_rank.tolist(),
                *point)]
    return subs


def _fixpoints(subs: Iterable[SupportSubspace]) -> list[SupportSubspace]:
    """The fixpoint entries, in report order (value, support).

    Among a full table's entries the empty support is always one: its solve
    has no coefficients, so none of them is at most ``zero_tol``.
    """
    return sorted((sub for sub in subs if sub.fixpoint),
                  key=lambda sub: (sub.value, sub.support))


def support_min_table(inst: Instance) -> dict[Support, SupportSubspace]:
    """Subspace minima for every support of size at most s, with final kinds.

    The point that each rank-deficient solve chases to, through its support
    map, is degenerate: the continuum the solve certifies passes through it.
    Each step strictly shrinks the support, so the chase ends in the table.
    """
    table = {sub.support: sub for sub in _solve_supports(inst, enumerate_supports(inst.n, inst.s))}
    for sub in [sub for sub in table.values() if not sub.nd2_holds]:
        while not sub.fixpoint:
            sub = table[support_of(sub.x, inst.tol.zero_tol)]
        if sub.kind is not PointKind.DEGENERATE:
            table[sub.support] = replace(sub, kind=PointKind.DEGENERATE)
    return table


def values_tie(a: float, b: float) -> bool:
    """Whether two stationary values are equal within the relative tie band."""
    return abs(b - a) <= VALUE_TIE_REL * (1.0 + max(abs(a), abs(b)))


def enumerate_stationary(inst: Instance) -> LandscapeReport:
    """Enumerate and classify every M-stationary point.

    The points are the table's fixpoint entries, classified as the table
    was built, in the order of ``_fixpoints``.  The stationarity residual is
    reported, not gated, so the enumeration never raises on its own solves.
    """
    validate_instance(inst)
    table = support_min_table(inst)
    points = _fixpoints(table.values())

    r = sum(p.kind is PointKind.LOCAL_MINIMIZER for p in points)
    r1 = sum(p.kind is PointKind.SADDLE_POINT for p in points)
    lower = sum(p.kind is PointKind.LOWER_ORDER for p in points)
    degen = sum(p.kind is PointKind.DEGENERATE for p in points)
    s_regular, witness = _s_regularity(
        (S, sub.nd2_holds) for S, sub in table.items() if len(S) == inst.s)
    lhs = (inst.n - inst.s) * r1
    rhs = r - 1
    ties = any(values_tie(p.value, q.value) for p, q in zip(points, points[1:]))
    return LandscapeReport(
        points=points, r=r, r1=r1, lower_order=lower, degenerate=degen,
        s_regular=s_regular, s_regularity_witness=witness,
        morse_lhs=lhs, morse_rhs=rhs, morse_holds=lhs >= rhs,
        continuum_detected=not all(sub.nd2_holds for sub in table.values()),
        hypothesis_violated=(not s_regular) or degen > 0 or ties,
        table=table,
    )


def run_genericity_experiment(
    m: int,
    n: int,
    s: int,
    trials: int,
    seed: int,
    *,
    tol: ToleranceConfig | None = None,
) -> GenericityReport:
    """Sample seeded Gaussian data and measure how often nondegeneracy holds.

    Per trial: draws (A, b) with independent standard-normal entries from a
    generator derived deterministically from (seed, trial index), enumerates
    the landscape, and records whether (a) every point is nondegenerate,
    (b) no full-support point is degenerate, and (c) A is s-regular.  Any
    failing trial is logged with its instance data for inspection.  ``m``,
    ``n``, ``s``, ``trials`` and ``seed`` must be integers (``operator.index``).
    """
    m, n, trials, seed = (integer(value, name) for value, name in
                          ((m, "m"), (n, "n"), (trials, "trials"), (seed, "seed")))
    validate_instance(Instance.from_arrays(np.zeros((m, n)), np.zeros(m), s, tol))
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    nondeg_trials = active_trials = regular_trials = 0
    for t in range(trials):
        rng = rng_for(seed, t)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        inst = Instance.from_arrays(A, b, s, tol)
        rep = enumerate_stationary(inst)
        all_nondeg = rep.degenerate == 0
        active = not any(p.kind is PointKind.DEGENERATE and len(p.support) == s
                         for p in rep.points)
        nondeg_trials += all_nondeg
        active_trials += active
        regular_trials += rep.s_regular
        if not (all_nondeg and active and rep.s_regular):
            logger.warning("genericity failure at trial %d (all_nondegenerate=%s, "
                           "minimizers_active=%s, s_regular=%s): %s", t, all_nondeg, active,
                           rep.s_regular, json.dumps(instance_to_dict(inst)))
    if trials == 0:
        return GenericityReport(0, 1.0, 1.0, 1.0, seed)
    return GenericityReport(
        trials=trials,
        all_nondegenerate_fraction=nondeg_trials / trials,
        minimizers_active_fraction=active_trials / trials,
        s_regular_fraction=regular_trials / trials,
        seed=seed,
    )
