import itertools
import re

import numpy as np
import pytest

from l0landscape import (
    DimensionMismatchError,
    NonFiniteDataError,
    default_rank_tol,
    largest_eigenvalue_gram,
    numerical_rank,
    solve_normal_equations,
)

from _oracles import RankDeficiencyError, grid_refine_min, pseudoinverse_apply

TOL = 1e-10


def solve_one(A, b, rank_tol=TOL):
    """``solve_normal_equations`` on a stack of one matrix, with its rank verdict."""
    A = np.asarray(A, dtype=float)
    (z,), (rank,) = solve_normal_equations(A[np.newaxis], b, rank_tol)
    return z, rank == A.shape[1]


@pytest.mark.parametrize("call, error, message", [
    (lambda: numerical_rank(np.eye(2), -1.0), ValueError, "rank_tol must be nonnegative, got -1.0"),
    (lambda: numerical_rank(np.eye(2), np.nan), ValueError,
     "rank_tol must be nonnegative, got nan"),
    (lambda: solve_normal_equations(np.eye(2)[np.newaxis], [1.0, 2.0], -1.0), ValueError,
     "rank_tol must be nonnegative, got -1.0"),
    (lambda: solve_normal_equations(np.eye(2)[np.newaxis], [1.0, 2.0], np.nan), ValueError,
     "rank_tol must be nonnegative, got nan"),
    (lambda: largest_eigenvalue_gram(np.zeros((0, 2))), DimensionMismatchError,
     "matrix must have at least one row and one column"),
], ids=["numerical_rank", "numerical_rank-nan", "solve-negative", "solve-nan",
        "largest_eigenvalue_gram"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(2), TOL) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((2, 2)), TOL) == 0

    def test_rank_one_by_construction(self):
        assert numerical_rank([[1.0, 1.0], [1.0, 1.0]], TOL) == 1

    def test_empty_columns(self):
        assert numerical_rank(np.zeros((3, 0)), TOL) == 0

    def test_threshold_that_overflows_passes_no_singular_value(self):
        # Found by tests/input_sweep.py: rank_tol * sigma_max overflowed with
        # a RuntimeWarning.  No singular value exceeds the exact threshold.
        assert numerical_rank(np.eye(3) * 10.0, np.finfo(float).max) == 0

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


def column_stacks(variant):
    """Per support size k = 0..3, the stack of every 5 x k column submatrix of 5x7 data."""
    A = np.random.default_rng(17).standard_normal((5, 7))
    if variant == "zero-column":
        A[:, 0] = 0.0
    elif variant == "duplicate-column":
        A[:, -1] = A[:, 0]
    return [np.array([A[:, list(S)] for S in itertools.combinations(range(7), k)])
            for k in range(4)]


class TestStackedNumericalRank:
    @pytest.mark.parametrize("rank_tol", [default_rank_tol(5, 7), 0.0, 1.0])
    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_stack_equals_per_matrix_calls(self, variant, rank_tol):
        for stack in column_stacks(variant):
            ranks = numerical_rank(stack, rank_tol)
            assert ranks.shape == (len(stack),)
            assert ranks.tolist() == [numerical_rank(M, rank_tol) for M in stack]

    @pytest.mark.parametrize("rank_tol", [TOL, 0.0, 1.0])
    def test_all_zero_matrix_in_a_stack(self, rank_tol):
        stack = np.array([np.eye(3, 2), np.zeros((3, 2)), [[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]])
        ranks = numerical_rank(stack, rank_tol)
        assert ranks.tolist() == [numerical_rank(M, rank_tol) for M in stack]
        assert ranks[1] == 0

    def test_empty_k_zero_stack(self):
        ranks = numerical_rank(np.zeros((4, 3, 0)), TOL)
        assert ranks.tolist() == [0, 0, 0, 0]

    def test_single_matrix_gives_an_int(self):
        rank = numerical_rank(np.eye(3, 2), TOL)
        assert type(rank) is int and rank == 2


class TestSolveNormalEquations:
    @pytest.mark.parametrize("rank_tol", [default_rank_tol(5, 7), 0.0, 1.0, np.finfo(float).max])
    @pytest.mark.parametrize("variant", ["generic", "zero-column", "duplicate-column"])
    def test_stack_rows_equal_the_public_lstsq(self, variant, rank_tol):
        # One gufunc call on the stack gives, bit for bit, what
        # np.linalg.lstsq gives one matrix at a time, and from its singular
        # values the ranks numerical_rank gives; k = 0 stacks included.
        b = np.random.default_rng(3).standard_normal(5)
        for stack in column_stacks(variant):
            Z, ranks = solve_normal_equations(stack, b, rank_tol)
            assert Z.shape == stack.shape[::2]
            assert ranks.tolist() == numerical_rank(stack, rank_tol).tolist()
            for A_S, z in zip(stack, Z):
                assert z.tobytes() == np.linalg.lstsq(A_S, b, rcond=rank_tol)[0].tobytes()

    @pytest.mark.parametrize("shape", [(0, 5, 2), (0, 5, 0), (3, 5, 0), (3, 0, 2), (0, 0, 0)],
                             ids=["N=0", "N=0,k=0", "k=0", "m=0", "empty"])
    def test_empty_stacks(self, shape):
        stack = np.zeros(shape)
        b = np.ones(shape[1])
        Z, ranks = solve_normal_equations(stack, b, TOL)
        assert Z.shape == shape[::2]
        assert ranks.tolist() == [0] * shape[0]
        for A_S, z in zip(stack, Z):
            assert z.tobytes() == np.linalg.lstsq(A_S, b, rcond=TOL)[0].tobytes()

    def test_rejects_a_single_matrix(self):
        with pytest.raises(DimensionMismatchError):
            solve_normal_equations(np.eye(2), [1.0, 2.0], TOL)

    def test_projection_onto_axis(self):
        x, full = solve_one(np.array([[1.0], [0.0]]), [1.0, 1.0], TOL)
        assert full
        assert x == pytest.approx([1.0])

    def test_identity_small_measurements(self):
        x, full = solve_one(np.eye(2), [0.1, 0.1], TOL)
        assert full
        np.testing.assert_allclose(x, [0.1, 0.1], atol=1e-14)

    def test_matches_grid_refinement_oracle(self):
        rng = np.random.default_rng(1234)
        A = rng.standard_normal((4, 2))
        b = rng.standard_normal(4)
        expected = grid_refine_min(A, b)
        x, full = solve_one(A, b, TOL)
        assert full
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_rank_deficient_returns_min_norm(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        x, full = solve_one(A, [1.0, 0.0], TOL)
        assert not full
        # solutions are z1 + z2 = 1; the minimum-norm one is (0.5, 0.5)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)

    def test_empty_support(self):
        x, full = solve_one(np.zeros((3, 0)), [1.0, 2.0, 3.0], TOL)
        assert full
        assert x.shape == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            solve_normal_equations(np.eye(2)[np.newaxis], [1.0, 2.0, 3.0], TOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_normal_equation_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        x, full = solve_one(A, b, TOL)
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
        via_solve, full = solve_one(A, b, TOL)
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
