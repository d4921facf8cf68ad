"""Tests for the IC(0) factorization and preconditioner."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.precond.ichol import IncompleteCholeskyPreconditioner, ic0_factor
from repro.sparse.poisson import poisson_2d, poisson_3d


class TestIC0:
    def test_tridiagonal_ic_is_exact_cholesky(self):
        A = sp.diags([-1.0, 4.0, -1.0], offsets=[-1, 0, 1], shape=(10, 10), format="csr")
        L = ic0_factor(A)
        assert np.allclose((L @ L.T).toarray(), A.toarray(), atol=1e-12)

    def test_poisson_factor_is_lower_triangular(self):
        A = poisson_2d(5)
        L = ic0_factor(A)
        assert (sp.triu(L, k=1)).nnz == 0

    @pytest.mark.parametrize("A", [poisson_2d(5), poisson_3d(4)], ids=["2d", "3d"])
    def test_factor_has_no_fill_in(self, A):
        # IC(0) keeps exactly the lower-triangular pattern of A.
        L = ic0_factor(A)
        lower = sp.tril(A).tocsr()
        assert L.nnz == lower.nnz
        assert np.array_equal(L.indptr, lower.indptr)
        assert np.array_equal(L.indices, lower.indices)

    def test_factor_matches_a_on_its_pattern(self):
        # The defining property of IC(0): (L L^T)_ij = a_ij wherever L is nonzero.
        A = poisson_2d(6)
        L = ic0_factor(A)
        pattern = sp.tril(A).toarray() != 0
        assert np.allclose((L @ L.T).toarray()[pattern], A.toarray()[pattern], atol=1e-12)

    def test_missing_diagonal_rejected(self):
        A = sp.csr_matrix(np.array([[2.0, 0.0], [1.0, 0.0]]))
        A.eliminate_zeros()
        with pytest.raises(ValueError, match="diagonal"):
            ic0_factor(A)

    def test_shift_is_added_to_the_diagonal(self):
        A = poisson_2d(4)
        L = ic0_factor(A, shift=1.0)
        assert np.allclose((L @ L.T).diagonal(), A.diagonal() + 1.0)

    def test_factor_does_not_modify_a(self):
        A = poisson_2d(4)
        before = A.copy()
        ic0_factor(A, shift=0.5)
        assert abs(A - before).max() == 0.0

    def test_spd_matrix_needs_no_shift(self):
        assert IncompleteCholeskyPreconditioner(poisson_3d(4)).shift == 0.0

    def test_exhausted_shift_attempts_raise(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="even with diagonal shifts"):
            IncompleteCholeskyPreconditioner(A, max_shift_attempts=1)

    def test_breakdown_raises_or_shifts(self):
        # An indefinite matrix breaks plain IC(0)...
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises((np.linalg.LinAlgError, ZeroDivisionError)):
            ic0_factor(A)
        # ...but the preconditioner rescues it with a diagonal shift.
        M = IncompleteCholeskyPreconditioner(A)
        assert M.shift > 0

    def test_reduces_cg_iterations(self):
        from repro.solvers import CGSolver

        A = poisson_3d(8)
        b = np.ones(A.shape[0])
        plain = CGSolver(A, rtol=1e-8, max_iter=2000).solve(b)
        ic = CGSolver(
            A, preconditioner=IncompleteCholeskyPreconditioner(A), rtol=1e-8, max_iter=2000
        ).solve(b)
        assert ic.iterations < plain.iterations
