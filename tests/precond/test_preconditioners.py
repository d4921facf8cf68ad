"""Tests for the preconditioners."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.precond import (
    IdentityPreconditioner,
    IncompleteCholeskyPreconditioner,
    JacobiPreconditioner,
)
from repro.sparse.poisson import poisson_2d, poisson_3d

ALL = (IdentityPreconditioner, JacobiPreconditioner, IncompleteCholeskyPreconditioner)


def _dense_inverse_action(cls, A):
    """The dense matrix ``M`` each class's ``solve`` applies the inverse of."""
    dense = A.toarray()
    if cls is IdentityPreconditioner:
        return np.eye(A.shape[0])
    if cls is JacobiPreconditioner:
        return np.diag(np.diag(dense))
    L = cls(A)._L.toarray()
    return L @ L.T


class TestIdentity:
    def test_returns_copy_of_input(self):
        A = poisson_2d(4)
        M = IdentityPreconditioner(A)
        r = np.arange(16, dtype=float)
        z = M.solve(r)
        assert np.array_equal(z, r)
        assert z is not r

    def test_length_validation(self):
        M = IdentityPreconditioner(poisson_2d(4))
        with pytest.raises(ValueError):
            M.solve(np.zeros(5))


class TestJacobi:
    def test_applies_inverse_diagonal(self):
        A = sp.diags([2.0, 4.0, 8.0], format="csr")
        M = JacobiPreconditioner(A)
        z = M.solve(np.array([2.0, 4.0, 8.0]))
        assert np.allclose(z, 1.0)

    def test_zero_diagonal_rejected(self):
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            JacobiPreconditioner(A)

    def test_reduces_cg_iterations_on_a_badly_scaled_system(self):
        from repro.solvers import CGSolver

        # D A D keeps A's SPD structure but spreads its diagonal over four
        # decades, which point Jacobi undoes exactly.
        A0 = poisson_2d(8)
        D = sp.diags(np.logspace(0, 2, A0.shape[0]), format="csr")
        A = (D @ A0 @ D).tocsr()
        b = np.ones(A.shape[0])
        plain = CGSolver(A, rtol=1e-8, max_iter=5000).solve(b)
        jac = CGSolver(
            A, preconditioner=JacobiPreconditioner(A), rtol=1e-8, max_iter=5000
        ).solve(b)
        assert jac.converged
        assert jac.iterations < plain.iterations


class TestInterface:
    """What every preconditioner promises its solver."""

    @pytest.mark.parametrize("cls", ALL)
    def test_solve_inverts_its_operator(self, cls):
        A = poisson_2d(5)
        r = np.random.default_rng(0).standard_normal(A.shape[0])
        z = cls(A).solve(r)
        assert np.allclose(_dense_inverse_action(cls, A) @ z, r, atol=1e-12)

    @pytest.mark.parametrize("cls", ALL)
    def test_solve_is_linear(self, cls):
        A = poisson_3d(4)
        M = cls(A)
        rng = np.random.default_rng(1)
        r1, r2 = rng.standard_normal((2, A.shape[0]))
        assert np.allclose(M.solve(2.0 * r1 - 3.0 * r2), 2.0 * M.solve(r1) - 3.0 * M.solve(r2))

    @pytest.mark.parametrize("cls", ALL)
    def test_solve_leaves_its_input_untouched(self, cls):
        A = poisson_2d(4)
        r = np.linspace(-1.0, 1.0, A.shape[0])
        before = r.copy()
        cls(A).solve(r)
        assert np.array_equal(r, before)

    @pytest.mark.parametrize("cls", ALL)
    @pytest.mark.parametrize("bad", [np.zeros(15), np.zeros(17), np.zeros((4, 4))])
    def test_solve_rejects_wrong_shape(self, cls, bad):
        M = cls(poisson_2d(4))
        with pytest.raises(ValueError):
            M.solve(bad)

    @pytest.mark.parametrize("cls", ALL)
    def test_rejects_non_square_matrix(self, cls):
        with pytest.raises(ValueError, match="square"):
            cls(sp.random(4, 5, density=0.5, format="csr", random_state=0))

    @pytest.mark.parametrize("cls", ALL)
    def test_accepts_a_dense_matrix(self, cls):
        A = poisson_2d(3)
        r = np.arange(1.0, 10.0)
        assert np.allclose(cls(A.toarray()).solve(r), cls(A).solve(r))

    @pytest.mark.parametrize("cls", ALL)
    def test_inverse_is_spd_for_an_spd_matrix(self, cls):
        # CG needs M^{-1} symmetric positive definite: check both on the
        # dense matrix whose columns are M^{-1} e_j.
        A = poisson_2d(4)
        M = cls(A)
        Minv = np.column_stack([M.solve(e) for e in np.eye(A.shape[0])])
        assert np.allclose(Minv, Minv.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(Minv) > 0)
