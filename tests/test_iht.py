import re

import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    Instance,
    NonFiniteDataError,
    PointKind,
    enumerate_stationary,
    hard_threshold,
    iht_solve,
    objective,
)
from l0landscape import iht

from _oracles import is_m_stationary, random_instance, stationarity_residual


@pytest.mark.parametrize("x0, error, message", [
    ([0.0, 0.0, 0.0], DimensionMismatchError, "x0 must have length 2, got shape (3,)"),
    ([0.0, np.nan], NonFiniteDataError, "x0 contains non-finite entries"),
], ids=["length", "non-finite"])
def test_input_check_raises(saddle_instance, x0, error, message):
    with pytest.raises(error, match=re.escape(message)):
        iht_solve(saddle_instance, x0)


class TestHardThreshold:
    def test_top_two_magnitudes(self):
        np.testing.assert_array_equal(hard_threshold([3.0, -1.0, 2.0], 2), [3.0, 0.0, 2.0])

    def test_tie_keeps_lower_index(self):
        np.testing.assert_array_equal(hard_threshold([1.0, 1.0], 1), [1.0, 0.0])

    def test_sparse_vectors_pass_through(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.zeros(6)
            support = rng.choice(6, size=2, replace=False)
            x[support] = rng.standard_normal(2)
            np.testing.assert_array_equal(hard_threshold(x, 3), x)

    def test_s_zero(self):
        np.testing.assert_array_equal(hard_threshold([1.0, 2.0], 0), [0.0, 0.0])

    def test_range_check(self):
        with pytest.raises(ValueError):
            hard_threshold([1.0, 2.0], 3)


class TestIhtSolve:
    def test_converges_to_axis_minimizer(self, saddle_instance):
        result = iht_solve(saddle_instance, [0.9, 0.1])
        assert result.converged
        assert result.is_m_stationary
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-9)

    def test_never_beats_the_global_optimum(self, instability_perturbed):
        result = iht_solve(instability_perturbed, [0.0, 0.0])
        rep = enumerate_stationary(instability_perturbed)
        best = min(p.value for p in rep.points if p.kind is PointKind.LOCAL_MINIMIZER)
        achieved = objective(instability_perturbed, result.x)
        assert best == pytest.approx(0.005)
        assert achieved >= best - 1e-15
        minimizer_supports = {p.support for p in rep.points
                              if p.kind is PointKind.LOCAL_MINIMIZER}
        assert result.support in minimizer_supports

    def test_zero_data_one_step(self):
        inst = Instance.from_arrays(np.eye(2), [0.0, 0.0], 1)
        result = iht_solve(inst, [0.7, 0.0])
        np.testing.assert_allclose(result.x, [0.0, 0.0], atol=1e-15)
        assert result.converged
        result0 = iht_solve(inst, [0.0, 0.0])
        np.testing.assert_allclose(result0.x, [0.0, 0.0], atol=1e-15)

    def test_monotone_descent_and_validity(self):
        rng = np.random.default_rng(606)
        shapes = [(3, 4, 1), (4, 6, 2), (5, 6, 3)]
        for trial in range(20):
            m, n, s = shapes[trial % len(shapes)]
            inst = random_instance(rng, m, n, s)
            x = hard_threshold(rng.standard_normal(n), s)
            values = [objective(inst, x)]
            from l0landscape import gradient, largest_eigenvalue_gram

            L = largest_eigenvalue_gram(inst.A) * (1.0 + 1e-9)
            for _ in range(200):
                x = hard_threshold(x - gradient(inst, x) / L, s)
                values.append(objective(inst, x))
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            result = iht_solve(inst, rng.standard_normal(n))
            if result.converged:
                assert result.is_m_stationary
                assert is_m_stationary(inst, result)

    def test_stalls_report_non_convergence(self, saddle_instance, monkeypatch):
        monkeypatch.setattr(iht, "MAX_ITER", 1)
        result = iht_solve(saddle_instance, [0.9, 0.1])
        assert not result.converged
        assert result.iterations == 1

    def test_cut_runs_get_the_pointwise_verdict(self, monkeypatch):
        # Cut at 100 steps, about half of these runs end inside the stationarity
        # band; the stacked residual must decide each as the pointwise one does.
        monkeypatch.setattr(iht, "MAX_ITER", 100)
        rng = np.random.default_rng(4242)
        verdicts = set()
        for trial in range(40):
            m, n, s = [(3, 4, 1), (4, 6, 2), (5, 6, 3)][trial % 3]
            inst = random_instance(rng, m, n, s)
            result = iht_solve(inst, rng.standard_normal(n))
            residual = stationarity_residual(inst, result.x, result.support)
            assert result.is_m_stationary == (residual <= 10.0 * inst.tol.stat_tol)
            verdicts.add(result.is_m_stationary)
        assert verdicts == {True, False}

    def test_escapes_the_saddle_from_its_own_basin_edge(self, instability_perturbed):
        # starting exactly at the saddle, the gradient step lands on a minimizer
        result = iht_solve(instability_perturbed, [0.0, 0.0])
        assert result.converged
        sp = enumerate_stationary(instability_perturbed)
        kinds = {p.support: p.kind for p in sp.points}
        assert kinds[result.support] is PointKind.LOCAL_MINIMIZER


class TestLandscapeComparison:
    def test_fraction_of_non_global_limits_is_reported(self):
        # the empirical illustration of why saddle points matter: multistart
        # IHT often terminates away from the global optimum
        rng = np.random.default_rng(808)
        runs = 0
        non_global = 0
        saddle_hits = 0
        for _ in range(25):
            inst = random_instance(rng, 4, 6, 2)
            rep = enumerate_stationary(inst)
            if rep.degenerate or rep.continuum_detected:
                continue
            best = min(p.value for p in rep.points
                       if p.kind is PointKind.LOCAL_MINIMIZER)
            for _ in range(20):
                result = iht_solve(inst, rng.standard_normal(inst.n))
                if not result.converged:
                    continue
                runs += 1
                value = objective(inst, result.x)
                kind = {p.support: p.kind for p in rep.points}.get(
                    result.support)
                if kind is PointKind.SADDLE_POINT:
                    saddle_hits += 1
                if value > best + 1e-9:
                    non_global += 1
        assert runs > 0
        fraction = (non_global + saddle_hits) / runs
        print(f"multistart IHT: {non_global}/{runs} non-global limits, "
              f"{saddle_hits}/{runs} saddle limits (fraction {fraction:.3f})")
        assert 0.0 <= fraction <= 1.0
        # with several minimizers per landscape, some basin must miss the best one
        assert non_global > 0
