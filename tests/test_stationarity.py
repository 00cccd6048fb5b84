import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    Instance,
    PointKind,
    cell_attachment,
    classify,
    enumerate_stationary,
    gradient,
    numerical_rank,
    objective,
    support_min_table,
    support_of,
)

from _oracles import (
    LANDSCAPES,
    NotStationaryError,
    RankDeficiencyError,
    fd_gradient,
    is_m_stationary,
    landscape_instance,
    nd1_vector_direct,
    nd1_vector_projection,
)


@pytest.mark.parametrize("call, error, message", [
    (lambda inst: gradient(inst, [1.0, 0.0, 0.0]), DimensionMismatchError,
     "x must have length 2, got shape (3,)"),
    (lambda inst: cell_attachment(5, 2, 1.0), ValueError, "n, s, k must be integers"),
], ids=["gradient", "cell_attachment"])
def test_input_check_raises(saddle_instance, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(saddle_instance)


def point(inst, coords):
    """A vector with its support, as the oracles read a point."""
    x = np.asarray(coords, dtype=float)
    return SimpleNamespace(x=x, support=support_of(x, inst.tol.zero_tol))


def classified(inst, fp):
    """``classify`` of the support-table entry of the stationary point ``fp``."""
    sub = support_min_table(inst)[fp.support]
    np.testing.assert_allclose(sub.argmin, fp.x, atol=1e-12)
    return classify(inst, sub, False)


class TestGradient:
    def test_saddle_instance_at_origin(self, saddle_instance):
        np.testing.assert_allclose(gradient(saddle_instance, [0.0, 0.0]), [-1.0, -1.0])

    def test_exact_fit_gives_zero(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        inst = Instance.from_arrays(A, A @ x, 2)
        np.testing.assert_allclose(gradient(inst, x), np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        inst = Instance.from_arrays(rng.standard_normal((4, 5)), rng.standard_normal(4), 2)
        x = rng.standard_normal(5)
        numeric = fd_gradient(lambda z: objective(inst, z), x, h=1e-6)
        np.testing.assert_allclose(gradient(inst, x), numeric, atol=1e-5)


class TestIsMStationary:
    def test_origin_of_zero_data(self, instability_original):
        assert is_m_stationary(instability_original, point(instability_original, [0.0, 0.0]))

    def test_axis_minimizer(self, saddle_instance):
        assert is_m_stationary(saddle_instance, point(saddle_instance, [1.0, 0.0]))

    def test_non_stationary_point(self, saddle_instance):
        assert not is_m_stationary(saddle_instance, point(saddle_instance, [0.5, 0.0]))


class TestNd1Vectors:
    def test_direct_contains_zero_for_complementarity_origin(self, complementarity_instance):
        vec = nd1_vector_direct(complementarity_instance,
                                point(complementarity_instance, [0.0, 0.0]))
        np.testing.assert_allclose(vec, [1.0, 0.0])

    def test_direct_nonzero_for_perturbed_origin(self, instability_perturbed):
        vec = nd1_vector_direct(instability_perturbed,
                                point(instability_perturbed, [0.0, 0.0]))
        np.testing.assert_allclose(vec, [-0.1, -0.1])

    def test_direct_at_full_support_returns_off_support_gradient(self, saddle_instance):
        # ND1 is vacuous here, but the raw vector is still the off-support gradient.
        vec = nd1_vector_direct(saddle_instance, point(saddle_instance, [1.0, 0.0]))
        np.testing.assert_allclose(vec, [-1.0])

    def test_certificate_vector_empty_at_full_support(self, saddle_instance):
        sp = classified(saddle_instance, point(saddle_instance, [1.0, 0.0]))
        assert math.isinf(sp.nd1_min_abs)
        assert sp.nd1_holds

    def test_direct_requires_stationarity(self, saddle_instance):
        with pytest.raises(NotStationaryError):
            nd1_vector_direct(saddle_instance, point(saddle_instance, [0.5, 0.0]))

    def test_projection_empty_support_case(self, complementarity_instance):
        fp = point(complementarity_instance, [0.0, 0.0])
        proj = nd1_vector_projection(complementarity_instance, fp)
        np.testing.assert_allclose(proj, [1.0, 0.0])
        np.testing.assert_allclose(
            proj, nd1_vector_direct(complementarity_instance, fp), atol=1e-12)

    def test_projection_hand_example(self, instability_perturbed):
        fp = point(instability_perturbed, [0.1, 0.0])
        proj = nd1_vector_projection(instability_perturbed, fp)
        np.testing.assert_allclose(proj, [-0.1])

    @pytest.mark.parametrize("seed", range(10))
    def test_projection_equals_direct_on_random_points(self, seed):
        from l0landscape import enumerate_stationary

        rng = np.random.default_rng(seed)
        inst = Instance.from_arrays(rng.standard_normal((4, 5)), rng.standard_normal(4), 2)
        report = enumerate_stationary(inst)
        assert report.s_regular
        for p in report.points:
            direct = nd1_vector_direct(inst, p)
            proj = nd1_vector_projection(inst, p)
            np.testing.assert_allclose(proj, direct, atol=1e-8)

    def test_projection_rejects_rank_deficient_support(self):
        inst = Instance.from_arrays([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0], 2)
        fp = point(inst, [0.5, 0.5, 0.0])
        with pytest.raises(RankDeficiencyError):
            nd1_vector_projection(inst, fp)


class TestCertify:
    def test_zero_data_origin_fails_nd1(self, instability_original):
        sp = classified(instability_original, point(instability_original, [0.0, 0.0]))
        assert not sp.nd1_holds
        assert sp.nd1_min_abs == 0.0
        assert not sp.nd1_near_degenerate
        assert sp.nd2_holds

    def test_full_support_point_is_nd1_vacuous(self, instability_perturbed):
        sp = classified(instability_perturbed, point(instability_perturbed, [0.1, 0.0]))
        assert sp.nd1_holds
        assert math.isinf(sp.nd1_min_abs)
        assert sp.nd2_holds

    def test_duplicated_columns_fail_nd2(self):
        inst = Instance.from_arrays([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0], 2)
        sp = classified(inst, point(inst, [0.5, 0.5, 0.0]))
        assert not sp.nd2_holds

    def test_near_degenerate_flagged(self):
        # off-support gradient magnitudes sit inside (0, stat_tol]
        inst = Instance.from_arrays(np.eye(2), [5e-9, 3e-9], 1)
        sp = classified(inst, point(inst, [0.0, 0.0]))
        assert not sp.nd1_holds
        assert sp.nd1_near_degenerate


class TestClassify:
    def test_perturbed_minimizer(self, instability_perturbed):
        sp = classified(instability_perturbed, point(instability_perturbed, [0.1, 0.0]))
        assert sp.kind is PointKind.LOCAL_MINIMIZER
        assert sp.value == pytest.approx(0.005)

    def test_perturbed_origin_is_saddle(self, instability_perturbed):
        sp = classified(instability_perturbed, point(instability_perturbed, [0.0, 0.0]))
        assert sp.kind is PointKind.SADDLE_POINT

    def test_zero_data_origin_is_degenerate(self, instability_original):
        sp = classified(instability_original, point(instability_original, [0.0, 0.0]))
        assert sp.kind is PointKind.DEGENERATE

    def test_lower_order_point(self):
        # s = 2 over identity sensing with a single active measurement
        inst = Instance.from_arrays(np.eye(3), [0.7, 0.8, 0.9], 2)
        sp = classified(inst, point(inst, [0.0, 0.0, 0.0]))
        assert sp.kind is PointKind.LOWER_ORDER

    @pytest.mark.parametrize("coords, kind", [([0.1, 0.0], PointKind.LOCAL_MINIMIZER),
                                              ([0.0, 0.0], PointKind.SADDLE_POINT)])
    def test_on_continuum_is_degenerate_while_local_checks_pass(
            self, instability_perturbed, coords, kind):
        sub = support_min_table(instability_perturbed)[point(instability_perturbed, coords).support]
        assert classify(instability_perturbed, sub, False).kind is kind
        sp = classify(instability_perturbed, sub, True)
        assert sp.nd1_holds and sp.nd2_holds
        assert sp.kind is PointKind.DEGENERATE

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_column_permutation_and_scaling(self, seed):
        from l0landscape import enumerate_stationary

        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        inst = Instance.from_arrays(A, b, 2)
        report = enumerate_stationary(inst)
        perm = rng.permutation(5)
        inst_perm = Instance.from_arrays(A[:, perm], b, 2)
        scale = 3.0
        inst_scaled = Instance.from_arrays(scale * A, scale * b, 2)
        for p in report.points:
            x_perm = p.x[perm]
            sp_perm = classified(inst_perm, point(inst_perm, x_perm))
            assert sp_perm.kind is p.kind
            sp_scaled = classified(inst_scaled, p)
            assert sp_scaled.kind is p.kind
            assert sp_scaled.value == pytest.approx(scale**2 * p.value)

    @pytest.mark.parametrize("shape, variant, seed", LANDSCAPES)
    def test_enumerated_nd2_is_support_rank_and_value_is_objective(self, shape, variant, seed):
        inst = landscape_instance(shape, variant, seed)
        for p in enumerate_stationary(inst).points:
            U = list(p.support)
            full_rank = numerical_rank(inst.A[:, U], inst.tol.rank_tol) == len(U)
            assert p.nd2_holds is full_rank
            assert p.value == objective(inst, p.x)


class TestBehavioralClassification:
    """The labels must match what the objective actually does nearby."""

    @pytest.mark.parametrize("seed", range(5))
    def test_saddle_has_descent_along_every_sparse_coordinate(self, seed):
        from l0landscape import enumerate_stationary

        rng = np.random.default_rng(100 + seed)
        inst = Instance.from_arrays(rng.standard_normal((4, 5)), rng.standard_normal(4), 2)
        report = enumerate_stationary(inst)
        saddles = [p for p in report.points if p.kind is PointKind.SADDLE_POINT]
        assert saddles
        for p in saddles:
            x = p.x
            t = 1e-4 * (1.0 + float(np.linalg.norm(x)))
            for i in range(inst.n):
                if i in p.support:
                    continue
                step = np.zeros(inst.n)
                step[i] = t
                descends = (objective(inst, x + step) < p.value
                            or objective(inst, x - step) < p.value)
                assert descends

    @pytest.mark.parametrize("seed", range(5))
    def test_minimizer_dominates_its_stratum_neighborhood(self, seed):
        from l0landscape import enumerate_stationary

        rng = np.random.default_rng(200 + seed)
        inst = Instance.from_arrays(rng.standard_normal((4, 5)), rng.standard_normal(4), 2)
        report = enumerate_stationary(inst)
        minimizers = [p for p in report.points if p.kind is PointKind.LOCAL_MINIMIZER]
        assert minimizers
        for p in minimizers:
            for _ in range(100):
                delta = np.zeros(inst.n)
                raw = rng.standard_normal(len(p.support))
                raw *= rng.uniform(0.0, 1e-3) / max(np.linalg.norm(raw), 1e-12)
                delta[list(p.support)] = raw
                assert objective(inst, p.x + delta) >= p.value - 1e-15


class TestCellAttachment:
    def test_minimizer_cell(self):
        att = cell_attachment(2, 1, 1)
        assert (att.cell_count, att.cell_dim) == (1, 0)

    def test_saddle_cell_small(self):
        att = cell_attachment(2, 1, 0)
        assert (att.cell_count, att.cell_dim) == (1, 1)

    def test_direct_binomial(self):
        att = cell_attachment(5, 2, 1)
        assert (att.cell_count, att.cell_dim) == (3, 1)

    @pytest.mark.parametrize("n,s,k", [(n, s, k) for n in range(2, 8)
                                       for s in range(0, n) for k in range(0, s + 1)])
    def test_matches_simplex_family_enumeration(self, n, s, k):
        # independent count: subsets J of {1, ..., n-k} with 1 in J, |J| = s-k+1
        import itertools

        universe = range(1, n - k + 1)
        family = [J for r in [s - k + 1]
                  for J in itertools.combinations(universe, r) if 1 in J]
        att = cell_attachment(n, s, k)
        assert att.cell_count == len(family)
        assert att.cell_dim == s - k

    def test_argument_range(self):
        with pytest.raises(ValueError):
            cell_attachment(2, 2, 1)
        with pytest.raises(ValueError):
            cell_attachment(4, 2, 3)
