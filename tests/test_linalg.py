import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    NonFiniteDataError,
    largest_eigenvalue_gram,
    numerical_rank,
    solve_normal_equations,
)

from _oracles import RankDeficiencyError, grid_refine_min, pseudoinverse_apply

TOL = 1e-10


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(2), TOL) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 2)), TOL) == 0

    def test_rank_one_by_construction(self):
        assert numerical_rank([[1.0, 1.0], [1.0, 1.0]], TOL) == 1

    def test_empty_columns(self):
        assert numerical_rank(np.zeros((3, 0)), TOL) == 0

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteDataError):
            numerical_rank([[np.nan, 0.0], [0.0, 1.0]], TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_under_row_permutation_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((5, 4))
        # plant a rank deficiency half the time
        if seed % 2:
            A[:, 3] = 2.0 * A[:, 0] - A[:, 1]
        base = numerical_rank(A, TOL)
        perm = rng.permutation(5)
        assert numerical_rank(A[perm], TOL) == base
        assert numerical_rank(37.5 * A, TOL) == base
        assert numerical_rank(-0.003 * A, TOL) == base


class TestSolveNormalEquations:
    def test_projection_onto_axis(self):
        x, full = solve_normal_equations(np.array([[1.0], [0.0]]), [1.0, 1.0], TOL)
        assert full
        assert x == pytest.approx([1.0])

    def test_identity_small_measurements(self):
        x, full = solve_normal_equations(np.eye(2), [0.1, 0.1], TOL)
        assert full
        np.testing.assert_allclose(x, [0.1, 0.1], atol=1e-14)

    def test_matches_grid_refinement_oracle(self):
        rng = np.random.default_rng(1234)
        A = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        expected = grid_refine_min(A, b)
        x, full = solve_normal_equations(A, b, TOL)
        assert full
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_rank_deficient_returns_min_norm(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        x, full = solve_normal_equations(A, [1.0, 0.0], TOL)
        assert not full
        # solutions are z1 + z2 = 1; the minimum-norm one is (0.5, 0.5)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_empty_support(self):
        x, full = solve_normal_equations(np.zeros((3, 0)), [1.0, 2.0, 3.0], TOL)
        assert full
        assert x.shape == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_normal_equations(np.eye(2), [1.0, 2.0, 3.0], TOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_normal_equation_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        x, full = solve_normal_equations(A, b, TOL)
        assert full
        residual = A.T @ (A @ x - b)
        assert np.max(np.abs(residual)) <= 1e-8 * (1.0 + np.linalg.norm(b))


class TestPseudoinverseApply:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse_apply(np.eye(3), [1.0, 2.0, 3.0]),
                                   [1.0, 2.0, 3.0])

    def test_scaled_column(self):
        out = pseudoinverse_apply(np.array([[2.0], [0.0]]), [2.0, 0.0])
        assert out == pytest.approx([1.0])

    def test_agrees_with_solver(self):
        rng = np.random.default_rng(99)
        A = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        via_pinv = pseudoinverse_apply(A, b)
        via_solve, full = solve_normal_equations(A, b, TOL)
        assert full
        np.testing.assert_allclose(via_pinv, via_solve, atol=1e-10)

    def test_rejects_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            pseudoinverse_apply(np.array([[1.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_identity(self, seed):
        # A @ pinv(A) @ A == A, applied column by column through b = A e_j
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 3))
        for j in range(3):
            col = A[:, j]
            reconstructed = A @ pseudoinverse_apply(A, col)
            np.testing.assert_allclose(reconstructed, col, atol=1e-8)


class TestLargestEigenvalueGram:
    def test_identity(self):
        assert largest_eigenvalue_gram(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert largest_eigenvalue_gram(np.diag([1.0, 2.0])) == pytest.approx(4.0)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(2024)
        A = rng.standard_normal((4, 6))
        expected = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
        got = largest_eigenvalue_gram(A)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_ones_in_null_space_falls_back(self):
        # Gram of [[1, -1]] annihilates the all-ones start vector.
        A = np.array([[1.0, -1.0]])
        assert largest_eigenvalue_gram(A) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert largest_eigenvalue_gram(np.zeros((2, 2))) == 0.0
