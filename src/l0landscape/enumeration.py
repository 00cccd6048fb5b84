"""Exhaustive M-stationary-point enumeration and landscape reporting.

Every support of size at most ``s`` is solved once by least squares on its
column submatrix; the points, their ND2 verdicts, the s-regularity verdict
and the level sweep are all read from that one table.  It is built one
support size at a time: one stacked SVD decides the ranks of all supports of
a size, and one ``lstsq`` per support gives its argmin.  Each solution is
M-stationary by construction because its gradient vanishes on the solved
support, which contains the solution's own support.  Two solutions are the
same point exactly when their supports under ``zero_tol`` agree, so the
points are the fixpoints, the supports whose solve has exactly that support;
``_fixpoints`` alone selects them, in report order, for the enumerator and the
stability probe.  Rank-deficient solves certify a continuum of stationary
points; the minimum-norm representative is kept and reported as degenerate.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .linalg import numerical_rank, solve_normal_equations
from .model import (
    Instance,
    FeasiblePoint,
    Support,
    ToleranceConfig,
    instance_to_dict,
    support_of,
    support_to_json,
    validate_instance,
)
from .stationarity import PointKind, StationaryPoint, classify
from .util import rng_for

logger = logging.getLogger(__name__)

# Relative tolerance for detecting ties among stationary values.
VALUE_TIE_REL = 1e-9


@dataclass(frozen=True, eq=False)
class SupportSubspace:
    """Minimum of the objective over the coordinate subspace of one support."""

    support: Support
    min_value: float
    argmin: np.ndarray
    argmin_support: Support  # the argmin's own support under zero_tol
    full_rank: bool


@dataclass
class LandscapeReport:
    """Full enumeration result for one instance.

    ``r`` counts local minimizers, ``r1`` saddle points.  The Morse relation
    compares ``morse_lhs = (n - s) * r1`` against ``morse_rhs = r - 1``; it is
    guaranteed only when the matrix is s-regular, all points are nondegenerate,
    and stationary values are pairwise distinct, so ``hypothesis_violated``
    records whenever any of that fails (the verdict is still computed).
    ``table`` holds the subspace minimum of every support of size at most s
    that the report was derived from; it is not serialized.
    """

    points: list[StationaryPoint]
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
        return {
            "points": [_point_to_dict(p) for p in self.points],
            "r": self.r,
            "r1": self.r1,
            "lower_order": self.lower_order,
            "degenerate": self.degenerate,
            "s_regular": self.s_regular,
            "s_regularity_witness": support_to_json(self.s_regularity_witness),
            "morse_lhs": self.morse_lhs,
            "morse_rhs": self.morse_rhs,
            "morse_holds": self.morse_holds,
            "continuum_detected": self.continuum_detected,
            "hypothesis_violated": self.hypothesis_violated,
        }


@dataclass
class GenericityReport:
    """Monte-Carlo outcome over random Gaussian data."""

    trials: int
    all_nondegenerate_fraction: float
    minimizers_active_fraction: float
    s_regular_fraction: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "all_nondegenerate_fraction": self.all_nondegenerate_fraction,
            "minimizers_active_fraction": self.minimizers_active_fraction,
            "s_regular_fraction": self.s_regular_fraction,
            "seed": self.seed,
        }


def _point_to_dict(p: StationaryPoint) -> dict:
    return {
        "x": [float(v) for v in p.point.x],
        "support": support_to_json(p.point.support),
        "kind": p.kind.value,
        "value": p.value,
        "nd1": p.cert.nd1_holds,
        "nd2": p.cert.nd2_holds,
        "nd1_near_degenerate": p.cert.nd1_near_degenerate,
    }


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


def _column_stack(A: np.ndarray, supports: list[Support]) -> np.ndarray:
    """The ``(N, m, k)`` stack of the submatrices ``A[:, S]`` of N supports of one size k."""
    return A.T[np.array(supports, dtype=int)].transpose(0, 2, 1)


def check_s_regularity(A, s: int, rank_tol: float) -> tuple[bool, Support | None]:
    """Whether every size-s column subset has rank s; returns the first failure."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if not 0 <= s <= min(m, n):
        raise ValidationError(f"need 0 <= s <= min(m, n), got s={s} for shape {A.shape}")
    supports = list(itertools.combinations(range(n), s))
    return _s_regularity(zip(supports, numerical_rank(_column_stack(A, supports), rank_tol) == s))


def _solve_supports(inst: Instance, supports: Iterable[Support]) -> list[SupportSubspace]:
    """Subspace minima of supports in size order: per size one stacked SVD, one ``lstsq`` each."""
    subs = []
    for _, group in itertools.groupby(supports, key=len):
        group = list(group)
        stack = _column_stack(inst.A, group)
        full_rank = numerical_rank(stack, inst.tol.rank_tol) == stack.shape[2]
        Z = solve_normal_equations(stack, inst.b, inst.tol.rank_tol)
        for S, z, full in zip(group, Z, full_rank.tolist()):
            x = np.zeros(inst.n)
            x[list(S)] = z
            r = inst.A @ x - inst.b  # the arithmetic of objective(inst, x), bit for bit
            subs.append(SupportSubspace(S, 0.5 * float(r @ r), x,
                                        support_of(x, inst.tol.zero_tol), full))
    return subs


def _fixpoints(subs: Iterable[SupportSubspace]) -> list[SupportSubspace]:
    """The entries whose solve has exactly their support, in report order (value, support).

    ``classify`` computes a value by the operations that gave ``min_value``.
    """
    return sorted((sub for sub in subs if sub.argmin_support == sub.support),
                  key=lambda sub: (sub.min_value, sub.support))


def support_min_table(inst: Instance) -> dict[Support, SupportSubspace]:
    """Subspace minima for every support of size at most s, one size at a time."""
    return {sub.support: sub for sub in _solve_supports(inst, enumerate_supports(inst.n, inst.s))}


def values_tie(a: float, b: float) -> bool:
    """Whether two stationary values are equal within the relative tie band."""
    return abs(b - a) <= VALUE_TIE_REL * (1.0 + max(abs(a), abs(b)))


def enumerate_stationary(inst: Instance) -> LandscapeReport:
    """Enumerate and classify every M-stationary point.

    The points are the table's fixpoints in the order of ``_fixpoints``.  Each
    is classified from its table entry: ND2 is the support's rank verdict, and
    the stationarity residual is reported, not gated, so the enumeration never
    raises on its own solves.
    """
    validate_instance(inst)
    table = support_min_table(inst)

    # Chase each rank-deficient solve to the fixpoint of its support map and
    # flag that point: the continuum the solve certifies passes through it.
    # A solve vanishes off its support, so each step of the chase strictly
    # shrinks the support; the chase ends and never leaves the table.
    deficient: set[Support] = set()
    for sub in table.values():
        if not sub.full_rank:
            while sub.argmin_support != sub.support:
                sub = table[sub.argmin_support]
            deficient.add(sub.support)

    points: list[StationaryPoint] = []
    for sub in _fixpoints(table.values()):
        sp = classify(inst, FeasiblePoint(x=sub.argmin, support=sub.support), sub.full_rank)
        if sub.support in deficient and sp.kind is not PointKind.DEGENERATE:
            sp = replace(sp, kind=PointKind.DEGENERATE)
        points.append(sp)

    continuum = bool(deficient)
    r = sum(p.kind is PointKind.LOCAL_MINIMIZER for p in points)
    r1 = sum(p.kind is PointKind.SADDLE_POINT for p in points)
    lower = sum(p.kind is PointKind.LOWER_ORDER for p in points)
    degen = sum(p.kind is PointKind.DEGENERATE for p in points)
    s_regular, witness = _s_regularity(
        (S, sub.full_rank) for S, sub in table.items() if len(S) == inst.s)
    lhs = (inst.n - inst.s) * r1
    rhs = r - 1
    ties = any(values_tie(p.value, q.value) for p, q in zip(points, points[1:]))
    return LandscapeReport(
        points=points,
        r=r,
        r1=r1,
        lower_order=lower,
        degenerate=degen,
        s_regular=s_regular,
        s_regularity_witness=witness,
        morse_lhs=lhs,
        morse_rhs=rhs,
        morse_holds=lhs >= rhs,
        continuum_detected=continuum,
        hypothesis_violated=(not s_regular) or continuum or degen > 0 or ties,
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
    failing trial is logged with its instance data for inspection.
    """
    validate_instance(Instance.from_arrays(np.zeros((m, n)), np.zeros(m), s, tol))
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    def one_trial(t: int) -> tuple[bool, bool, bool]:
        rng = rng_for(seed, t)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        inst = Instance.from_arrays(A, b, s, tol)
        rep = enumerate_stationary(inst)
        all_nondeg = rep.degenerate == 0 and not rep.continuum_detected
        active = not any(
            p.kind is PointKind.DEGENERATE and len(p.point.support) == s for p in rep.points
        )
        if not (all_nondeg and active and rep.s_regular):
            logger.warning(
                "genericity failure at trial %d (all_nondegenerate=%s, "
                "minimizers_active=%s, s_regular=%s): %s",
                t,
                all_nondeg,
                active,
                rep.s_regular,
                json.dumps(instance_to_dict(inst)),
            )
        return all_nondeg, active, rep.s_regular

    outcomes = [one_trial(t) for t in range(trials)]
    if trials == 0:
        return GenericityReport(0, 1.0, 1.0, 1.0, seed)
    return GenericityReport(
        trials=trials,
        all_nondegenerate_fraction=sum(a for a, _, _ in outcomes) / trials,
        minimizers_active_fraction=sum(b for _, b, _ in outcomes) / trials,
        s_regular_fraction=sum(c for _, _, c in outcomes) / trials,
        seed=seed,
    )
