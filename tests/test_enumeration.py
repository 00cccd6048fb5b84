import collections
import functools
import itertools
import json
import logging
import re

import numpy as np
import pytest

from l0landscape import (
    Instance,
    PointKind,
    ToleranceConfig,
    ValidationError,
    check_s_regularity,
    enumerate_stationary,
    enumerate_supports,
    gradient,
    instance_from_dict,
    numerical_rank,
    objective,
    run_genericity_experiment,
    solve_normal_equations,
    support_min_table,
    support_of,
    sweep_levels,
)
from l0landscape import enumeration, levelsets
from l0landscape.util import rng_for

from _oracles import (
    LANDSCAPES,
    is_m_stationary,
    kinds_by_chasing_every_entry,
    landscape_instance,
    stationarity_residual,
)

TOL = 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: list(enumerate_supports(3, 4)), "need 0 <= s <= n, got n=3, s=4"),
    (lambda: check_s_regularity(np.ones((2, 3)), 3, TOL), "need 0 <= s <= min(m, n), got s=3"),
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
            z = solve_normal_equations(inst.A[:, S][np.newaxis], inst.b, inst.tol.rank_tol)[0]
            full = numerical_rank(inst.A[:, S], inst.tol.rank_tol) == len(S)
            assert full
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

        def counting_solve(stack, b, rank_tol):
            sizes.extend([stack.shape[2]] * stack.shape[0])
            return solve_normal_equations(stack, b, rank_tol)

        # Patch every module that could solve supports, so any solve is counted.
        for module in (enumeration, levelsets):
            monkeypatch.setattr(module, "solve_normal_equations", counting_solve, raising=False)

        report = enumerate_stationary(inst)
        expected = collections.Counter(len(S) for S in enumerate_supports(inst.n, inst.s))
        assert collections.Counter(sizes) == expected
        sizes.clear()
        sweep_levels(inst, report)
        assert sizes == []
        assert (report.s_regular, report.s_regularity_witness) == check_s_regularity(
            inst.A, inst.s, inst.tol.rank_tol)


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
    @pytest.mark.parametrize("rank_tol", [None, 0.0, 1.0])
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
        assert check_s_regularity(np.eye(2), 1, TOL) == (True, None)

    def test_zero_column_witness(self):
        ok, witness = check_s_regularity(np.array([[1.0, 0.0], [0.0, 0.0]]), 1, TOL)
        assert not ok
        assert witness == (1,)

    def test_witness_is_lexicographically_first(self):
        A = np.zeros((2, 3))
        A[0, 2] = 1.0
        ok, witness = check_s_regularity(A, 1, TOL)
        assert not ok
        assert witness == (0,)

    def test_s_zero_trivially_regular(self):
        assert check_s_regularity(np.zeros((2, 2)), 0, TOL) == (True, None)

    def test_random_gaussian_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((4, 6))
        ok, witness = check_s_regularity(A, 2, TOL)
        oracle = all(
            numerical_rank(A[:, list(S)], TOL) == 2
            for S in itertools.combinations(range(6), 2)
        )
        assert ok == oracle is True
        assert witness is None


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
