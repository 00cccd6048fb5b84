"""The support table and the points against exact rational arithmetic.

``_oracles.exact_table`` solves every support of the binary64 data without
rounding.  A float decision ``v > tol`` is pinned only where the exact ``v``
clears the tolerance by a factor of 100 either way; the other decisions are
skipped, and so is every fact of a support whose full rank is not certified.

Scaling ``(A, b)`` by ``2^k`` is exact in binary64 and moves no argmin, so
the scaled points and their margins are pinned bit for bit to the unscaled
ones; the verdicts that still depend on the data scale are strict xfails.
"""

import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from l0landscape import Instance, PointKind, enumerate_stationary, support_of, sweep_levels
from l0landscape.enumeration import VALUE_TIE_REL

from _oracles import exact_table, landscape_instance

MARGIN = 100

CASES = [(shape, variant, seed)
         for shape in [(3, 5, 2), (4, 7, 2), (5, 7, 3)]
         for variant in ["generic", "zero-column", "duplicate-column"]
         for seed in range(2)]


def _clear(v: Fraction, tol: float) -> bool | None:
    """The exact verdict of ``v > tol`` where ``v`` clears ``tol`` 100-fold, else None."""
    tol = Fraction(tol)
    if MARGIN * v <= tol:
        return False
    return True if v >= MARGIN * tol else None


def _full_rank(ex, k: int, rank_tol: float) -> bool | None:
    """The exact full-rank verdict where it is certified, else None.

    Exact rank deficiency is certain.  Full rank is certified when
    ``det(A_S^T A_S) >= (100 rank_tol)^2 ||A_S||_F^(2k)``: the determinant is
    the product of the squared singular values and ``||A_S||_F >= sigma_max``,
    so then ``sigma_min >= 100 rank_tol sigma_max``.
    """
    if ex.rank < k:
        return False
    bound = (MARGIN * Fraction(rank_tol)) ** 2 * ex.frobenius_sq ** k
    return True if ex.gram_det >= bound else None


class TestExactTable:
    def test_hand_solved_supports(self):
        exact = exact_table([[1.0, 1.0], [0.0, 1.0]], [1.0, 2.0], 2)
        assert exact[(0, 1)].coefficients == (-1, 2)
        assert (exact[(0, 1)].value, exact[(0, 1)].off_gradient) == (0, ())
        assert exact[(0,)].coefficients == (1,)
        assert (exact[(0,)].value, exact[(0,)].off_gradient) == (2, (-2,))
        assert (exact[()].value, exact[()].off_gradient) == (Fraction(5, 2), (-1, -3))

    def test_rank_deficient_supports_have_no_solve(self):
        exact = exact_table([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 0.0], 2)
        assert (exact[(0, 1)].rank, exact[(0, 1)].gram_det) == (1, 0)
        assert exact[(0, 1)].coefficients is None
        assert (exact[(2,)].rank, exact[(2,)].value) == (0, None)
        assert exact[(0, 2)].rank == 1

    def test_rank_deficient_supports_get_the_minimum_norm_solve(self):
        exact = exact_table([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 0.0], 2)
        assert exact[(0, 1)].min_norm == (Fraction(1, 10), Fraction(1, 10))
        assert exact[(2,)].min_norm == (0,)
        assert exact[(0, 2)].min_norm == (Fraction(1, 5), 0)
        assert exact[(0,)].min_norm == exact[(0,)].coefficients == (Fraction(1, 5),)

    def test_minimum_norm_solve_projects_out_a_two_dimensional_null_space(self):
        exact = exact_table([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], [14.0, 1.0], 3)
        assert exact[(0, 1, 2)].rank == 1
        assert exact[(0, 1, 2)].min_norm == (1, 2, 3)

    def test_data_are_read_as_exact_binary64(self):
        exact = exact_table([[1.0]], [0.1], 1)
        assert exact[(0,)].coefficients == (Fraction(0.1),)
        assert exact[(0,)].coefficients != (Fraction(1, 10),)


@pytest.mark.parametrize("shape,variant,seed", CASES)
def test_table_and_points_agree_with_exact_arithmetic(shape, variant, seed):
    inst = landscape_instance(shape, variant, seed)
    tol = inst.tol
    rep = enumerate_stationary(inst)
    exact = exact_table(inst.A, inst.b, inst.s)
    points = {p.support: p for p in rep.points}
    pinned = collections.Counter()
    certified = set()
    for S, sub in rep.table.items():
        ex = exact[S]
        full = _full_rank(ex, len(S), tol.rank_tol)
        if full is None:
            continue
        assert sub.nd2_holds == full, S
        pinned["full_rank"] += 1
        if not full:
            continue
        certified.add(S)
        smallest = min(map(abs, ex.coefficients), default=None)
        fixpoint = True if smallest is None else _clear(smallest, tol.zero_tol)
        if fixpoint is None:
            continue
        assert sub.fixpoint == fixpoint == (S in points), S
        pinned["fixpoint"] += 1
        if not fixpoint:
            continue
        sp = points[S]
        if len(S) == inst.s:
            assert sp.nd1_holds and sp.nd1_min_abs == math.inf
        elif (nd1 := _clear(min(map(abs, ex.off_gradient)), tol.stat_tol)) is not None:
            assert sp.nd1_holds == nd1, S
            pinned["nd1"] += 1
    ordered = [p.support for p in rep.points if p.support in certified]
    for S, T in itertools.combinations(ordered, 2):
        a, b = exact[S].value, exact[T].value
        if abs(b - a) >= MARGIN * Fraction(VALUE_TIE_REL) * (1 + max(abs(a), abs(b))):
            assert a < b, (S, T)
            pinned["order"] += 1
    assert min(pinned[key] for key in ("full_rank", "fixpoint", "nd1", "order")) > 0, pinned


@pytest.mark.parametrize("shape,variant,seed",
                         [case for case in CASES if case[1] != "generic"])
def test_chase_from_rank_deficient_support_ends_on_its_exact_solve(shape, variant, seed):
    # In exact arithmetic the minimum-norm solve on a rank-deficient S, with
    # support V, is also V's own solve, so the chase from S ends on V in one
    # step, and the continuum through that point makes it degenerate.
    inst = landscape_instance(shape, variant, seed)
    zero_tol = inst.tol.zero_tol
    rep = enumerate_stationary(inst)
    points = {p.support: p for p in rep.points}
    pinned = 0
    for S, ex in exact_table(inst.A, inst.b, inst.s).items():
        if ex.rank == len(S):
            continue
        nonzero = [False if c == 0 else _clear(abs(c), zero_tol) for c in ex.min_norm]
        if None in nonzero:
            continue
        V = tuple(i for i, keep in zip(S, nonzero) if keep)
        assert support_of(rep.table[S].x, zero_tol) == V, S
        assert rep.table[V].fixpoint, (S, V)
        assert points[V].kind is PointKind.DEGENERATE, (S, V)
        pinned += 1
    assert pinned > 0


def test_identity_case_has_distinct_exact_values():
    # The tie rule calls three pairs of this landscape's values equal (see
    # test_coordinate_above_zero_tol_keeps_its_points_apart).  In exact
    # arithmetic all seven values differ, each tied pair by b_1^2 / 2, and
    # the report lists them in exact order.
    b = [1.0, 5e-8, 0.3]
    inst = Instance.from_arrays(np.eye(3), b, 2)
    rep = enumerate_stationary(inst)
    exact = exact_table(inst.A, inst.b, inst.s)
    values = [exact[p.support].value for p in rep.points]
    gaps = [hi - lo for lo, hi in zip(values, values[1:])]
    assert len(values) == 7 and min(gaps) > 0
    assert sorted(gaps)[:3] == [Fraction(b[1]) ** 2 / 2] * 3
    assert rep.hypothesis_violated


SCALES = (-40, -20, -10, -5, 5, 10, 20, 40)

# ND1 compares a gradient margin, which scales by 4^k, with the absolute
# stat_tol, and the value tie band has an absolute term; ROADMAP item 2.
ND1_SCALE_DOWN = "scaled-down margins fall below stat_tol (ROADMAP item 2)"
ND1_SCALE_UP = ("margins that are exactly 0, the copied column's, rise above stat_tol "
                "when scaled up (ROADMAP item 2)")
TIE_BAND = "scaled-down values fall into the tie band's absolute term (ROADMAP item 2)"


def _changes_today(case, k) -> str | None:
    """Why the kinds or ``hypothesis_violated`` of ``case`` change at ``2^k``, else None."""
    shape, variant, seed = case
    if (variant == "generic" and k <= -20 or (shape, variant, seed, k) in {
            ((4, 7, 2), "generic", 1, -10), ((4, 7, 2), "duplicate-column", 1, -10),
            ((5, 7, 3), "generic", 1, -10)}):
        return ND1_SCALE_DOWN
    if variant == "duplicate-column" and abs(k) >= 20:
        return ND1_SCALE_DOWN if k < 0 else ND1_SCALE_UP
    if (shape, variant, seed, k) in {((3, 5, 2), "generic", 1, -10),
                                     ((5, 7, 3), "generic", 0, -10),
                                     ((5, 7, 3), "generic", 1, -5)}:
        return TIE_BAND
    return None


def _pair(case, k, marks=()):
    shape, variant, seed = case
    return pytest.param(case, k, marks=marks,
                        id=f"{'x'.join(map(str, shape))}-{variant}-{seed}-2^{k}")


@functools.cache
def _scaled_instance(case, k: int):
    inst = landscape_instance(*case)
    return Instance.from_arrays(np.ldexp(inst.A, k), np.ldexp(inst.b, k), inst.s, inst.tol)


@functools.cache
def _scaled_report(case, k: int):
    return enumerate_stationary(_scaled_instance(case, k))


@pytest.mark.parametrize("case,k", [_pair(case, k) for case in CASES for k in SCALES])
def test_power_of_two_scaling_is_exact(case, k):
    rep, scaled = _scaled_report(case, 0), _scaled_report(case, k)
    factor = 4.0**k
    assert [q.support for q in scaled.points] == [p.support for p in rep.points]
    for p, q in zip(rep.points, scaled.points):
        assert q.x.tobytes() == p.x.tobytes(), p.support
        assert (q.value, q.stationarity_residual, q.nd1_min_abs) == (
            factor * p.value, factor * p.stationarity_residual, factor * p.nd1_min_abs), p.support


@pytest.mark.parametrize("case,k", [
    _pair(case, k, pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason))
    if (reason := _changes_today(case, k)) else _pair(case, k)
    for case in CASES for k in SCALES])
def test_power_of_two_scaling_keeps_kinds(case, k):
    rep, scaled = _scaled_report(case, 0), _scaled_report(case, k)
    assert [q.kind for q in scaled.points] == [p.kind for p in rep.points]
    assert scaled.hypothesis_violated == rep.hypothesis_violated


@pytest.mark.parametrize("case,k", [_pair(case, k) for case in CASES for k in SCALES
                                    if k > 0 and not _changes_today(case, k)])
def test_power_of_two_scaling_keeps_the_sweep(case, k):
    # The outer intervals are counted at -inf and +inf, not inside their
    # nominal bounds v_min - 1 and v_max + 1, which a level band of relative
    # width 1e-12 straddles once the values pass about 5e11.
    sweeps = [sweep_levels(_scaled_instance(case, j), _scaled_report(case, j)) for j in (0, k)]
    unscaled, scaled = ([iv.q for iv in sweep.intervals] for sweep in sweeps)
    assert scaled == unscaled
    assert sweeps[1].all_admissible == sweeps[0].all_admissible
