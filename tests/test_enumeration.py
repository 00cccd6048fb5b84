import collections
import functools
import itertools
import json
import logging
import math
import re

import numpy as np
import pytest

from l0landscape import (
    Instance,
    PointKind,
    ToleranceConfig,
    ValidationError,
    check_s_regularity,
    default_probe_epsilon,
    enumerate_stationary,
    enumerate_supports,
    gradient,
    instance_from_dict,
    instance_to_dict,
    numerical_rank,
    objective,
    probe_strong_stability,
    run_genericity_experiment,
    solve_normal_equations,
    support_min_table,
    support_of,
    sweep_levels,
)
from l0landscape import cli, enumeration, levelsets
from l0landscape.writer import dumps as writer_dumps
from l0landscape.enumeration import values_tie
from l0landscape.model import support_to_json
from l0landscape.stationarity import SupportSubspace
from l0landscape.util import rng_for

from _oracles import (
    LANDSCAPES,
    genericity_by_enumeration,
    is_m_stationary,
    kinds_by_chasing_every_entry,
    landscape_instance,
    stationarity_residual,
)

TOL = 1e-10


def count_records(monkeypatch) -> list:
    """The supports of the ``SupportSubspace`` records built from now on, as they are built."""
    built = []
    init = SupportSubspace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SupportSubspace, "__init__", counting_init)
    return built


def s_regularity(A, s):
    """``check_s_regularity`` on ``A`` with ``b = 0`` and rank tolerance ``TOL``."""
    return check_s_regularity(
        Instance.from_arrays(A, np.zeros(len(A)), s, ToleranceConfig(rank_tol=TOL)))


@pytest.mark.parametrize("call, message", [
    (lambda: list(enumerate_supports(3, 4)), "need 0 <= s <= n, got n=3, s=4"),
    (lambda: s_regularity(np.ones((2, 3)), 3), "s must lie in {0, ..., n-1} = {0, ..., 2}, got 3"),
], ids=["enumerate_supports", "check_s_regularity"])
def test_input_check_raises(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


class TestEnumerateSupports:
    def test_tiny_listing(self):
        assert list(enumerate_supports(2, 1)) == [(), (0,), (1,)]

    def test_binomial_count(self):
        assert len(list(enumerate_supports(4, 2))) == 11

    def test_count_matches_independent_loop(self):
        # independent counting: all bitmasks of {0..5} with popcount <= 2
        expected = sum(1 for mask in range(2**6) if bin(mask).count("1") <= 2)
        assert len(list(enumerate_supports(6, 2))) == expected == 22

    def test_size_then_lex_order_and_uniqueness(self):
        supports = list(enumerate_supports(5, 3))
        assert len(set(supports)) == len(supports)
        keys = [(len(S), S) for S in supports]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_index_arrays_and_lex_ranks_follow_the_listing(self, n):
        # The table's blocks list the supports of each size in this order, and
        # the continuum chase finds a support's row by its lex rank.
        s = n - 1 if n < 8 else 4
        blocks = enumeration._size_indices(n, s)
        assert [len(index) for index in blocks] == [math.comb(n, k) for k in range(s + 1)]
        rows = [tuple(row) for index in blocks for row in index.tolist()]
        assert rows == list(enumerate_supports(n, s))
        for index in blocks:
            assert [enumeration._lex_rank(n, tuple(row)) for row in index.tolist()] == list(
                range(len(index)))


def _row_mix(rng, A, b):
    Q, _ = np.linalg.qr(rng.standard_normal((len(b), len(b))))
    return Q @ A, Q @ b


def _column_scale(rng, A, b):
    return A * rng.lognormal(0.0, 2.0, A.shape[1]), b


def _power_of_two(k):
    def scale(rng, A, b):
        return np.ldexp(A, k), np.ldexp(b, k)

    scale.__name__ = f"scale_2^{k}"
    return scale


# ND1 compares gradient entries with the absolute stat_tol, and the gradient
# scales with the square of the data, so small data scales flip verdicts.
STAT_TOL_SCALE = ("classification depends on the data scale through stat_tol "
                  "(the CHANGES.md FOUND line on stat_tol, ROADMAP item 2)")

INVARIANCE_SHAPES = [(5, 7, 3), (4, 7, 2), (5, 8, 3), (6, 9, 3)]


def _support_kinds(A, b, s):
    rep = enumerate_stationary(Instance.from_arrays(A, b, s))
    return {(p.support, p.kind) for p in rep.points}


@functools.cache
def _invariance_case(m, n, s, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return A, b, _support_kinds(A, b, s)


class TestEnumerateStationary:
    def test_zero_measurements_yield_single_degenerate_point(self, instability_original):
        rep = enumerate_stationary(instability_original)
        assert len(rep.points) == 1
        p = rep.points[0]
        np.testing.assert_allclose(p.x, [0.0, 0.0], atol=1e-10)
        assert p.kind is PointKind.DEGENERATE
        assert not p.nd1_holds

    def test_perturbed_instance_has_two_minimizers_and_saddle(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        assert len(rep.points) == 3
        by_support = {p.support: p for p in rep.points}
        np.testing.assert_allclose(by_support[(0,)].x, [0.1, 0.0], atol=1e-10)
        np.testing.assert_allclose(by_support[(1,)].x, [0.0, 0.1], atol=1e-10)
        np.testing.assert_allclose(by_support[()].x, [0.0, 0.0], atol=1e-10)
        assert by_support[(0,)].kind is PointKind.LOCAL_MINIMIZER
        assert by_support[(1,)].kind is PointKind.LOCAL_MINIMIZER
        assert by_support[()].kind is PointKind.SADDLE_POINT
        assert (rep.r, rep.r1) == (2, 1)

    def test_one_sided_measurements(self, complementarity_instance):
        rep = enumerate_stationary(complementarity_instance)
        assert len(rep.points) == 2
        kinds = {p.support: p.kind for p in rep.points}
        assert kinds[(0,)] is PointKind.LOCAL_MINIMIZER
        assert kinds[()] is PointKind.DEGENERATE
        np.testing.assert_allclose(
            [p for p in rep.points if p.support == (0,)][0].x,
            [-1.0, 0.0], atol=1e-10)

    def test_points_sorted_by_value_then_support(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        keys = [(p.value, p.support) for p in rep.points]
        assert keys == sorted(keys)

    def test_every_point_is_stationary(self):
        rng = np.random.default_rng(5)
        inst = Instance.from_arrays(rng.standard_normal((4, 6)), rng.standard_normal(4), 2)
        rep = enumerate_stationary(inst)
        for p in rep.points:
            assert is_m_stationary(inst, p)
            assert p.stationarity_residual <= inst.tol.stat_tol

    def test_resolving_reported_supports_reproduces_points(self):
        rng = np.random.default_rng(7)
        inst = Instance.from_arrays(rng.standard_normal((4, 6)), rng.standard_normal(4), 2)
        rep = enumerate_stationary(inst)
        for p in rep.points:
            S = list(p.support)
            (z,), (rank,) = solve_normal_equations(inst.A[:, S][np.newaxis], inst.b,
                                                   inst.tol.rank_tol)
            assert rank == len(S)
            x = np.zeros(inst.n)
            x[S] = z
            np.testing.assert_allclose(x, p.x, atol=1e-10)

    def test_point_budget_under_s_regularity(self):
        rng = np.random.default_rng(8)
        inst = Instance.from_arrays(rng.standard_normal((4, 6)), rng.standard_normal(4), 2)
        rep = enumerate_stationary(inst)
        assert rep.s_regular
        assert not rep.continuum_detected  # s-regularity rules out continua
        assert len(rep.points) <= 22
        assert rep.r + rep.r1 + rep.lower_order + rep.degenerate == len(rep.points)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        perm = rng.permutation(5)
        rep = enumerate_stationary(Instance.from_arrays(A, b, 2))
        rep_perm = enumerate_stationary(Instance.from_arrays(A[:, perm], b, 2))
        assert (rep.r, rep.r1) == (rep_perm.r, rep_perm.r1)
        inverse = np.argsort(perm)
        originals = {tuple(np.round(p.x, 9)) for p in rep.points}
        mapped = {tuple(np.round(p.x[inverse], 9)) for p in rep_perm.points}
        assert originals == mapped

    @pytest.mark.parametrize("transform", [
        _row_mix,
        _column_scale,
        *(_power_of_two(k) for k in (-5, 10, 20, 30)),
        *(pytest.param(_power_of_two(k), marks=pytest.mark.xfail(
            raises=AssertionError, strict=True, reason=STAT_TOL_SCALE)) for k in (-10, -20)),
    ], ids=lambda transform: transform.__name__.lstrip("_"))
    def test_support_kind_invariance(self, transform):
        # Orthogonal row mixing, positive column scaling and scaling of the
        # whole data keep every point's support and kind.
        for (m, n, s), seed in itertools.product(INVARIANCE_SHAPES, range(10)):
            A, b, expected = _invariance_case(m, n, s, seed)
            rng = np.random.default_rng((1, seed))
            assert _support_kinds(*transform(rng, A, b), s) == expected, (m, n, s, seed)

    @staticmethod
    def _assert_kinds_match_every_entry_chase(inst, rep):
        kinds, continuum = kinds_by_chasing_every_entry(inst)
        assert {(p.support, p.kind) for p in rep.points} == kinds
        assert rep.continuum_detected == continuum

    def test_zero_column_creates_continuum_certificate(self):
        inst = Instance.from_arrays([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.5], 1)
        rep = enumerate_stationary(inst)
        assert rep.continuum_detected
        assert not rep.s_regular
        assert rep.s_regularity_witness == (1,)
        assert rep.hypothesis_violated
        assert any(p.kind is PointKind.DEGENERATE for p in rep.points)
        self._assert_kinds_match_every_entry_chase(inst, rep)

    def test_duplicate_columns_force_degenerate_representative(self):
        inst = Instance.from_arrays([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.5], 2)
        rep = enumerate_stationary(inst)
        assert rep.continuum_detected
        self._assert_kinds_match_every_entry_chase(inst, rep)
        # the minimum-norm representative on the duplicated pair spreads evenly
        spread = [p for p in rep.points if p.support == (0, 1)]
        assert spread and spread[0].kind is PointKind.DEGENERATE
        np.testing.assert_allclose(spread[0].x, [0.5, 0.5, 0.0], atol=1e-10)

    def test_continuum_through_a_representative_under_zero_tol(self):
        # The duplicated pair's minimum-norm solve is 7.5e-10 on each column,
        # under zero_tol, so the chase takes it to the origin.  Classified on
        # its own the origin passes ND1 (gradient 1.5e-7 off its support); the
        # continuum through it makes it degenerate.
        inst = Instance.from_arrays([[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                    [1.5e-8, 1.0, 0.0], 2)
        rep = enumerate_stationary(inst)
        origin = [p for p in rep.points if p.support == ()]
        assert origin and origin[0].nd1_holds and origin[0].nd2_holds
        assert origin[0].kind is PointKind.DEGENERATE
        self._assert_kinds_match_every_entry_chase(inst, rep)

    @pytest.mark.parametrize("variant", ["zero-column", "duplicate-column"])
    @pytest.mark.parametrize("shape", [(5, 7, 3), (6, 9, 3)])
    def test_degenerate_points_match_every_entry_chase(self, shape, variant):
        # Chasing only the rank-deficient entries flags exactly the points
        # that chasing every entry flags.
        for seed in range(10):
            inst = landscape_instance(shape, variant, seed)
            self._assert_kinds_match_every_entry_chase(inst, enumerate_stationary(inst))

    def test_morse_relation_on_random_instances(self):
        rng = np.random.default_rng(10)
        shapes = [(2, 2, 1), (3, 4, 1), (4, 6, 2), (3, 5, 2), (4, 5, 3)]
        checked = 0
        while checked < 60:
            m, n, s = shapes[checked % len(shapes)]
            inst = Instance.from_arrays(rng.standard_normal((m, n)), rng.standard_normal(m), s)
            rep = enumerate_stationary(inst)
            if rep.hypothesis_violated:
                continue
            assert rep.morse_lhs >= rep.morse_rhs
            assert rep.morse_holds
            checked += 1


class TestPointIdentity:
    """Two solutions are one point exactly when their supports under zero_tol agree."""

    @staticmethod
    def _assert_points_are_fixpoint_supports(inst, rep):
        fixpoints = {
            S for S, sub in rep.table.items()
            if support_of(sub.x, inst.tol.zero_tol) == S
        }
        supports = [p.support for p in rep.points]
        assert len(supports) == len(set(supports))
        assert set(supports) == fixpoints

    def test_coordinate_above_zero_tol_keeps_its_points_apart(self):
        # b[1] = 5e-8 lies above zero_tol, so every support is its own
        # fixpoint: three minimizers, three saddles and the origin.  The
        # minimizer on (0, 1) and the saddle on (0,) differ only in that
        # coordinate, so their values tie within the relative band.
        inst = Instance.from_arrays(np.eye(3), [1.0, 5e-8, 0.3], 2)
        rep = enumerate_stationary(inst)
        assert len(rep.points) == 7
        assert (rep.r, rep.r1) == (3, 3)
        assert rep.hypothesis_violated
        self._assert_points_are_fixpoint_supports(inst, rep)

    @pytest.mark.parametrize("variant", ["zero-column", "duplicate-column"])
    def test_reported_supports_are_the_fixpoint_supports(self, variant):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((5, 7))
        if variant == "zero-column":
            A[:, 2] = 0.0
        else:
            A[:, 4] = A[:, 1]
        inst = Instance.from_arrays(A, rng.standard_normal(5), 3)
        rep = enumerate_stationary(inst)
        assert rep.continuum_detected
        self._assert_points_are_fixpoint_supports(inst, rep)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_scaled_data_reports_every_fixpoint_support(self, scale):
        # Scaling the data leaves the solves' supports alone but scales their
        # gradient rounding past stat_tol; the enumeration must still report
        # every fixpoint support rather than reject its own solves.
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        inst = Instance.from_arrays(scale * A, scale * b, 3)
        self._assert_points_are_fixpoint_supports(inst, enumerate_stationary(inst))

    @pytest.mark.parametrize("shape,variant,seed", LANDSCAPES)
    def test_fixpoint_flag_is_the_support_rule(self, shape, variant, seed):
        # The per-size mask (every solved coefficient above zero_tol) agrees
        # with the solve's own support under zero_tol on every entry.
        inst = landscape_instance(shape, variant, seed)
        for S, sub in enumerate_stationary(inst).table.items():
            assert sub.fixpoint == (support_of(sub.x, inst.tol.zero_tol) == S)

    def test_coefficient_equal_to_zero_tol_is_not_a_point(self):
        # The solve on (0,) is exactly zero_tol, which both rules treat as zero.
        inst = Instance.from_arrays(np.eye(2), [1e-9, 1.0], 1)
        rep = enumerate_stationary(inst)
        assert rep.table[(0,)].x[0] == inst.tol.zero_tol
        assert not rep.table[(0,)].fixpoint
        assert [p.support for p in rep.points] == [(1,), ()]
        self._assert_points_are_fixpoint_supports(inst, rep)

    def test_generic_data_needs_no_support_of(self, monkeypatch):
        # Only rank-deficient entries are chased, so generic data never asks
        # for a solve's support.
        calls = []
        monkeypatch.setattr(enumeration, "support_of", lambda *a: calls.append(a))
        rep = enumerate_stationary(landscape_instance((5, 8, 3), "generic", 0))
        assert len(rep.points) == len(rep.table) and calls == []


class TestOneSolvePerSupport:
    @staticmethod
    def _instance(variant):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((5, 7))
        if variant == "zero-column":
            A[:, 0] = 0.0
        elif variant == "duplicate-column":
            A[:, -1] = A[:, 0]
        return Instance.from_arrays(A, rng.standard_normal(5), 3)

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_enumeration_and_sweep_share_one_solve_per_support(self, monkeypatch, variant):
        inst = self._instance(variant)
        sizes = []
        rank_calls = []

        def counting_solve(stack, b, rank_tol):
            sizes.extend([stack.shape[2]] * stack.shape[0])
            return solve_normal_equations(stack, b, rank_tol)

        def counting_rank(M, rank_tol):
            rank_calls.append(np.shape(M))
            return numerical_rank(M, rank_tol)

        # Patch every module that could solve supports, so any solve is counted.
        for module in (enumeration, levelsets):
            monkeypatch.setattr(module, "solve_normal_equations", counting_solve, raising=False)
        # The ranks come from the solves' own singular values: no second SVD.
        monkeypatch.setattr(enumeration, "numerical_rank", counting_rank)

        report = enumerate_stationary(inst)
        expected = collections.Counter(len(S) for S in enumerate_supports(inst.n, inst.s))
        assert collections.Counter(sizes) == expected
        sizes.clear()
        sweep_levels(inst, report)
        assert sizes == []
        probe_strong_stability(inst, report.points[0], epsilon=default_probe_epsilon(report),
                               delta=1e-6, trials=2, seed=0)
        assert rank_calls == []
        assert (report.s_regular, report.s_regularity_witness) == check_s_regularity(inst)


def benchmark_instance(shape, variant, seed=0):
    """Gaussian data, or its zero-column or duplicate-column variant, drawn as the benchmark draws it."""
    m, n, s = shape
    rng = np.random.default_rng(np.random.SeedSequence((seed, m, n, s, 0)))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if variant == "zero-column":
        A[:, 0] = 0.0
    elif variant == "duplicate-column":
        A[:, -1] = A[:, 0]
    return Instance.from_arrays(A, b, s)


class TestStackedTable:
    @pytest.mark.parametrize("rank_tol", [None, 0.0, 0.5])
    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_full_rank_is_the_rank_rule_per_support(self, variant, rank_tol):
        base = TestOneSolvePerSupport._instance(variant)
        inst = Instance.from_arrays(base.A, base.b, base.s, ToleranceConfig(rank_tol=rank_tol))
        table = enumerate_stationary(inst).table
        assert list(table) == list(enumerate_supports(inst.n, inst.s))
        for S, sub in table.items():
            assert sub.nd2_holds == (numerical_rank(inst.A[:, S], inst.tol.rank_tol) == len(S))

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_blocks_leave_the_table_unchanged(self, monkeypatch, variant):
        inst = benchmark_instance((5, 8, 3), variant)
        whole = enumerate_stationary(inst).table
        monkeypatch.setattr(enumeration, "_BLOCK", 7)
        blocked = enumerate_stationary(inst).table
        assert list(whole) == list(blocked)
        for S, sub in whole.items():
            other = blocked[S]
            assert sub.x.tobytes() == other.x.tobytes()
            assert (sub.value, sub.fixpoint, sub.nd2_holds, sub.stationarity_residual,
                    sub.nd1_min_abs) == (other.value, other.fixpoint, other.nd2_holds,
                                         other.stationarity_residual, other.nd1_min_abs)

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column", "continuum"])
    def test_one_record_per_support(self, variant):
        # On "continuum" the origin is degenerate only because the duplicate
        # columns' continuum reaches it: its own ND1 and ND2 hold.
        inst = (Instance.from_arrays([[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                     [1.5e-8, 1.0, 0.0], 2) if variant == "continuum"
                else benchmark_instance((5, 8, 3), variant))
        rep = enumerate_stationary(inst)
        assert all(rep.table[p.support] is p for p in rep.points)
        for sub in rep.table.values():
            verdicts = (sub.stationarity_residual, sub.nd1_min_abs, sub.nd1_holds,
                        sub.nd1_near_degenerate, sub.kind)
            assert [v is not None for v in verdicts] == [sub.fixpoint] * 5, sub.support
        table = support_min_table(inst)
        assert [sub.kind for sub in table.values()] == [sub.kind for sub in rep.table.values()]
        assert rep.continuum_detected == (not all(sub.nd2_holds for sub in rep.table.values()))
        if variant == "continuum":
            origin = rep.table[()]
            assert origin.nd1_holds and origin.nd2_holds
            assert origin.kind is PointKind.DEGENERATE and rep.continuum_detected

    @staticmethod
    def _tied_instance(name):
        if name == "continuum":
            return Instance.from_arrays([[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                        [1.5e-8, 1.0, 0.0], 2)
        if name == "mirror":  # nondegenerate and s-regular, with exactly tied values
            return Instance.from_arrays(np.eye(3), [1.0, 1.0, 2.0], 2)
        shape, variant = name.split(":")
        return benchmark_instance(tuple(map(int, shape.split("x"))), variant)

    @pytest.mark.parametrize("name", [
        "5x8x3:duplicate-column", "6x10x3:duplicate-column", "5x8x3:zero-column",
        "6x10x3:zero-column", "5x8x3:generic", "continuum", "mirror"])
    def test_order_counts_and_ties_are_the_loops(self, name):
        # The report reads these from the table's per-size arrays; here they
        # are recomputed from the records, as one loop each.
        inst = self._tied_instance(name)
        rep = enumerate_stationary(inst)
        fixpoints = [sub for sub in rep.table.values() if sub.fixpoint]
        assert rep.points == sorted(fixpoints, key=lambda p: (p.value, p.support))
        assert all(rep.table[p.support] is p for p in rep.points)
        kinds = collections.Counter(p.kind for p in rep.points)
        assert (rep.r, rep.r1, rep.lower_order, rep.degenerate) == tuple(kinds[kind] for kind in (
            PointKind.LOCAL_MINIMIZER, PointKind.SADDLE_POINT, PointKind.LOWER_ORDER,
            PointKind.DEGENERATE))
        pairs = list(zip(rep.points, rep.points[1:]))
        ties = any(values_tie(p.value, q.value) for p, q in pairs)
        assert rep.hypothesis_violated == (not rep.s_regular or rep.degenerate > 0 or ties)
        # Equal columns give bit-identical solves, so their values tie exactly.
        exact = any(p.value == q.value for p, q in pairs)
        assert exact == ("duplicate-column" in name or name in ("continuum", "mirror"))
        if name == "mirror":  # the ties alone violate the hypothesis
            assert ties and rep.s_regular and rep.degenerate == 0

    @pytest.mark.parametrize("shape, variant", [
        ((6, 10, 3), "duplicate-column"),
        ((5, 8, 3), "generic"), ((5, 8, 3), "zero-column"),
        ((7, 12, 4), "generic"), ((7, 12, 4), "zero-column"),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_points_are_classified_by_the_pointwise_rule(self, shape, variant):
        # Every reported point must carry the value that objective and the
        # gradient that gradient give it one point at a time: the table takes
        # them from stacked products per support size, and a gradient batched
        # over all points as one product rounds the ND1 entries differently.
        inst = benchmark_instance(shape, variant)
        rep = enumerate_stationary(inst)
        assert (rep.degenerate > 0) == (variant != "generic")
        for p in rep.points:
            U = p.support
            assert p.value == objective(inst, p.x)
            assert p.stationarity_residual == stationarity_residual(inst, p.x, p.support)
            off = gradient(inst, p.x)[[i for i in range(inst.n) if i not in U]]
            if len(U) == inst.s:
                assert p.nd1_min_abs == np.inf
            else:
                min_abs = float(np.min(np.abs(off), initial=np.inf))
                assert p.nd1_min_abs == min_abs
                assert p.nd1_holds == (min_abs > inst.tol.stat_tol)
                assert p.nd1_near_degenerate == (0.0 < min_abs <= inst.tol.stat_tol)


class TestSRegularity:
    def test_identity(self):
        assert s_regularity(np.eye(2), 1) == (True, None)

    def test_zero_column_witness(self):
        ok, witness = s_regularity([[1.0, 0.0], [0.0, 0.0]], 1)
        assert not ok
        assert witness == (1,)

    def test_witness_is_lexicographically_first(self):
        A = np.zeros((2, 3))
        A[0, 2] = 1.0
        ok, witness = s_regularity(A, 1)
        assert not ok
        assert witness == (0,)

    def test_s_zero_trivially_regular(self):
        assert s_regularity(np.zeros((2, 2)), 0) == (True, None)

    def test_random_gaussian_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((4, 6))
        ok, witness = s_regularity(A, 2)
        oracle = all(
            numerical_rank(A[:, list(S)], TOL) == 2
            for S in itertools.combinations(range(6), 2)
        )
        assert ok == oracle is True
        assert witness is None


    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column",
                                         "late-duplicate"])
    def test_blocks_leave_the_verdict_unchanged(self, monkeypatch, variant):
        # "late-duplicate" repeats the last column in the one before it, so
        # the first rank-deficient support, (0, 6, 7), lies in the third block.
        base = benchmark_instance((5, 8, 3), "generic" if variant == "late-duplicate" else variant)
        A = base.A.copy()
        if variant == "late-duplicate":
            A[:, -2] = A[:, -1]
        inst = Instance.from_arrays(A, base.b, base.s)
        whole = check_s_regularity(inst)
        witness = next((S for S in itertools.combinations(range(inst.n), inst.s)
                        if numerical_rank(inst.A[:, S], inst.tol.rank_tol) != inst.s), None)
        assert whole == (witness is None, witness)
        sizes = []

        def counting_rank(M, rank_tol):
            sizes.append(len(M))
            return numerical_rank(M, rank_tol)

        monkeypatch.setattr(enumeration, "numerical_rank", counting_rank)
        monkeypatch.setattr(enumeration, "_BLOCK", 7)
        assert check_s_regularity(inst) == whole
        assert sizes and max(sizes) <= 7
        if variant == "late-duplicate":
            assert whole == (False, (0, 6, 7)) and len(sizes) == 3


class TestVerdictInvariants:
    """What lets the report verdicts read the kinds alone, and the sweep skip an empty report.

    A continuum marks the point it chases to degenerate; a size-s support
    short of full rank is a rank-deficient entry, hence a continuum; and the
    empty support's solve has no coefficient to fail ``zero_tol``.
    """

    @staticmethod
    def _assert_invariants(inst):
        rep = enumerate_stationary(inst)
        assert not rep.continuum_detected or rep.degenerate > 0
        assert rep.s_regular or rep.continuum_detected
        assert () in {p.support for p in rep.points}
        assert rep.hypothesis_violated or not rep.continuum_detected

    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 1e6])
    @pytest.mark.parametrize("shape, variant, seed", LANDSCAPES)
    def test_on_generic_and_degenerate_families(self, shape, variant, seed, scale):
        inst = landscape_instance(shape, variant, seed)
        self._assert_invariants(Instance.from_arrays(scale * inst.A, scale * inst.b, inst.s))

    @pytest.mark.parametrize("shape", [(1, 2, 0), (1, 2, 1), (3, 5, 2), (5, 7, 3)])
    def test_on_all_zero_data(self, shape):
        m, n, s = shape
        self._assert_invariants(Instance.from_arrays(np.zeros((m, n)), np.zeros(m), s))


class TestGenericityExperiment:
    def test_minimal_shape(self):
        rep = run_genericity_experiment(2, 2, 1, trials=100, seed=7)
        assert rep.all_nondegenerate_fraction == 1.0
        assert rep.minimizers_active_fraction == 1.0
        assert rep.s_regular_fraction == 1.0

    def test_zero_trials_convention(self):
        rep = run_genericity_experiment(4, 6, 2, trials=0, seed=1)
        assert rep.trials == 0
        assert rep.all_nondegenerate_fraction == 1.0
        assert rep.minimizers_active_fraction == 1.0
        assert rep.s_regular_fraction == 1.0

    def test_deterministic_given_seed(self):
        a = run_genericity_experiment(3, 4, 1, trials=25, seed=3)
        b = run_genericity_experiment(3, 4, 1, trials=25, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_every_failing_trial_is_logged_with_its_data(self, caplog):
        # stat_tol = 10 lies above the ND1 margins of small Gaussian data, so
        # every trial has a degenerate point and must be logged once.
        caplog.set_level(logging.WARNING, logger="l0landscape.enumeration")
        tol = ToleranceConfig(stat_tol=10.0)
        rep = run_genericity_experiment(3, 5, 2, trials=5, seed=0, tol=tol)
        assert rep.all_nondegenerate_fraction == 0.0
        records = [r for r in caplog.records if r.name == "l0landscape.enumeration"]
        assert [r.levelno for r in records] == [logging.WARNING] * 5
        for t, record in enumerate(records):
            index, all_nondeg, active, s_regular, data = record.args
            inst = instance_from_dict(json.loads(data))
            rng = rng_for(0, t)
            np.testing.assert_array_equal(inst.A, rng.standard_normal((3, 5)))
            np.testing.assert_array_equal(inst.b, rng.standard_normal(3))
            assert inst.tol == tol.resolved(3, 5)
            again = enumerate_stationary(inst)
            verdicts = (again.degenerate == 0,
                        not any(p.kind is PointKind.DEGENERATE and len(p.support) == 2
                                for p in again.points),
                        again.s_regular)
            assert (index, all_nondeg, active, s_regular) == (t, *verdicts)
            assert verdicts == (False, True, True)
            assert record.getMessage().startswith(
                f"genericity failure at trial {t} (all_nondegenerate=False, "
                "minimizers_active=True, s_regular=True): {")


    @pytest.mark.parametrize("tol", [None, ToleranceConfig(stat_tol=0.05),
                                     ToleranceConfig(rank_tol=0.1), ToleranceConfig(rank_tol=0.5)],
                             ids=["default", "stat_tol=0.05", "rank_tol=0.1", "rank_tol=0.5"])
    @pytest.mark.parametrize("shape", [(3, 5, 2), (4, 7, 2), (5, 8, 3)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_verdicts_match_the_report_formula(self, shape, tol, caplog):
        caplog.set_level(logging.WARNING, logger="l0landscape.enumeration")
        rep = run_genericity_experiment(*shape, trials=50, seed=0, tol=tol)
        fractions, failures = genericity_by_enumeration(*shape, 50, 0, tol)
        assert (rep.all_nondegenerate_fraction, rep.minimizers_active_fraction,
                rep.s_regular_fraction) == fractions
        logged = [r.args[:4] for r in caplog.records if r.name == "l0landscape.enumeration"]
        assert logged == failures
        if shape == (5, 8, 3) and tol == ToleranceConfig(rank_tol=0.1):
            assert fractions == (0.42, 0.42, 0.42)

    def test_builds_no_support_record(self, monkeypatch):
        built = count_records(monkeypatch)
        run_genericity_experiment(5, 8, 3, trials=3, seed=0, tol=ToleranceConfig(stat_tol=0.05))
        assert built == []
        rep = enumerate_stationary(benchmark_instance((5, 8, 3), "generic"))
        assert built == []
        rep.points
        assert len(built) == 93


class TestReportSerialization:
    def test_field_names_and_one_based_supports(self, instability_perturbed):
        rep = enumerate_stationary(instability_perturbed)
        payload = rep.to_dict()
        assert set(payload) == {
            "points", "r", "r1", "lower_order", "degenerate", "s_regular",
            "s_regularity_witness", "morse_lhs", "morse_rhs", "morse_holds",
            "continuum_detected", "hypothesis_violated",
        }
        supports = sorted(tuple(p["support"]) for p in payload["points"])
        assert supports == [(), (1,), (2,)]
        for p in payload["points"]:
            assert set(p) == {"x", "support", "kind", "value", "nd1", "nd2",
                              "nd1_near_degenerate"}


class TestRecordsOnDemand:
    """``points`` and ``table`` are built on first read; ``analyze`` reads neither."""

    @staticmethod
    def _instance(variant):
        if variant == "continuum":
            return Instance.from_arrays([[10.0, 10.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                        [1.5e-8, 1.0, 0.0], 2)
        return benchmark_instance((5, 8, 3), variant)

    def test_analyze_builds_no_record(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(instance_to_dict(self._instance("generic"))))
        built = count_records(monkeypatch)
        assert cli.main(["analyze", "--instance", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 93
        assert built == []

    @pytest.mark.parametrize("first", ["points", "table"])
    def test_records_are_built_once(self, monkeypatch, first):
        rep = enumerate_stationary(self._instance("generic"))
        built = count_records(monkeypatch)
        getattr(rep, first)
        assert len(built) == 93
        assert rep.points is rep.points and rep.table is rep.table
        assert all(rep.table[p.support] is p for p in rep.points)
        assert len(built) == 93

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column", "continuum"])
    def test_to_dict_is_the_records_formula(self, variant):
        # The report's dict as it was formed when records were its fields:
        # the fixpoint records of the table in (value, support) order, then
        # the summary fields.
        inst = self._instance(variant)
        rep = enumerate_stationary(inst)
        fixpoints = [sub for sub in support_min_table(inst).values() if sub.fixpoint]
        expected = {"points": [p.to_dict() for p in sorted(
            fixpoints, key=lambda p: (p.value, p.support))]}
        for name in ("r", "r1", "lower_order", "degenerate", "s_regular",
                     "s_regularity_witness", "morse_lhs", "morse_rhs", "morse_holds",
                     "continuum_detected", "hypothesis_violated"):
            expected[name] = getattr(rep, name)
        expected["s_regularity_witness"] = support_to_json(rep.s_regularity_witness)
        assert json.dumps(rep.to_dict()) == json.dumps(expected)

    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column", "continuum"])
    def test_sweep_reads_the_same_records_on_a_fresh_report(self, variant):
        inst = self._instance(variant)
        fresh = sweep_levels(inst, enumerate_stationary(inst)).to_dict()
        for first in ("points", "table"):
            rep = enumerate_stationary(inst)
            getattr(rep, first)
            assert sweep_levels(inst, rep).to_dict() == fresh

    def test_sweep_builds_no_record(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "generic.json"
        inst = self._instance("generic")
        path.write_text(json.dumps(instance_to_dict(inst)))
        built = count_records(monkeypatch)
        assert cli.main(["sweep", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["applicable"]
        assert built == []
        # ``--csv`` reads the intervals, which the result builds from its columns.
        assert cli.main(["sweep", "--instance", str(path), "--csv"]) == 0
        intervals = sweep_levels(inst, enumerate_stationary(inst)).to_dict()["intervals"]
        assert capsys.readouterr().out == "lo,hi,q\n" + "".join(
            f"{iv['interval'][0]!r},{iv['interval'][1]!r},{iv['q']}\n" for iv in intervals)
        assert built == []


class TestSweepRows:
    """``sweep`` writes its report from the result's columns: the bytes of its ``to_dict``."""

    @staticmethod
    def _instance(case, saddle_instance):
        if case == "saddle":
            return saddle_instance
        if case == "continuum":
            return TestRecordsOnDemand._instance("continuum")
        if case == "s-zero":
            rng = np.random.default_rng(5)
            return Instance.from_arrays(rng.standard_normal((3, 4)), rng.standard_normal(3), 0)
        shape, variant = case
        return benchmark_instance(shape, variant)

    @pytest.mark.parametrize("case", [
        *[(shape, variant) for shape in [(5, 8, 3), (6, 10, 3)]
          for variant in ["generic", "zero-column", "duplicate-column"]],
        "saddle", "continuum", "s-zero"])
    def test_report_bytes_are_the_dict_dumped(self, case, saddle_instance, tmp_path, capsys):
        inst = self._instance(case, saddle_instance)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        assert cli.main(["sweep", "--instance", str(path)]) == 0
        result = sweep_levels(inst, enumerate_stationary(inst))
        assert capsys.readouterr().out == json.dumps(result.to_dict(), indent=2) + "\n"
        if case == "continuum":
            assert not result.applicable and result.transitions == []
        if case == "saddle":
            assert result.transitions[0].kinds == [PointKind.LOCAL_MINIMIZER] * 2

    def test_s_zero_sweep(self, tmp_path, capsys):
        # s = 0: one node, the empty support, and no size -1 block to link it.
        inst = self._instance("s-zero", None)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance_to_dict(inst)))
        assert cli.main(["sweep", "--instance", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        value = 0.5 * float(inst.b @ inst.b)
        assert [iv["q"] for iv in payload["intervals"]] == [0, 1]
        assert payload["transitions"] == [{"value": pytest.approx(value), "kind": "LocalMinimizer",
                                           "delta": 1, "admissible": True}]

    def test_non_finite_bound_raises_as_the_writer_does(self):
        inst = benchmark_instance((5, 8, 3), "generic")
        result = sweep_levels(inst, enumerate_stationary(inst))
        result.values[-1] = math.inf
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant: inf"):
            writer_dumps(result.to_records())


class TestBinomialPostCondition:
    """Under the Morse hypothesis the counts are binomials; others raise, exit 1."""

    @staticmethod
    def _mislabel_saddles(monkeypatch):
        classify = enumeration.classify

        def mislabelling(inst, k, nd2, nd1_min_abs):
            nd1, near, kinds = classify(inst, k, nd2, nd1_min_abs)
            kinds[[kind is PointKind.SADDLE_POINT for kind in kinds]] = PointKind.LOWER_ORDER
            return nd1, near, kinds

        monkeypatch.setattr(enumeration, "classify", mislabelling)

    def test_mislabelled_counts_raise(self, monkeypatch):
        inst = benchmark_instance((5, 8, 3), "generic")
        assert not enumerate_stationary(inst).hypothesis_violated
        self._mislabel_saddles(monkeypatch)
        with pytest.raises(RuntimeError, match=r"\(r, r1, lower_order\) = \(56, 0, 37\)"):
            enumerate_stationary(inst)

    def test_cli_exits_one(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(instance_to_dict(benchmark_instance((5, 8, 3), "generic"))))
        self._mislabel_saddles(monkeypatch)
        assert cli.main(["analyze", "--instance", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: (r, r1, lower_order)")

    def test_violated_hypothesis_is_not_checked(self, monkeypatch, instability_original):
        self._mislabel_saddles(monkeypatch)
        assert enumerate_stationary(instability_original).hypothesis_violated
