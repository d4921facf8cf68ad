"""Tests for iteration-matrix spectral analysis (inputs to Theorem 2)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.analysis import (
    jacobi_iteration_matrix,
    spectral_radius,
    spectral_radius_from_convergence,
)
from repro.sparse.matrices import diagonally_dominant
from repro.sparse.poisson import poisson_1d, poisson_2d, poisson_3d


class TestIterationMatrices:
    def test_jacobi_radius_known_for_1d_poisson(self):
        # For tridiag(-1, 2, -1) of size n, rho(G_J) = cos(pi/(n+1)).
        n = 10
        G = jacobi_iteration_matrix(poisson_1d(n))
        expected = np.cos(np.pi / (n + 1))
        assert spectral_radius(G) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("poisson", [poisson_1d, poisson_2d, poisson_3d])
    def test_jacobi_radius_known_for_every_poisson_dimension(self, poisson):
        # The d-dimensional 7-/5-/3-point Laplacian on n points per axis has
        # rho(G_J) = cos(pi/(n+1)), independent of d.
        n = 5
        G = jacobi_iteration_matrix(poisson(n))
        assert spectral_radius(G) == pytest.approx(np.cos(np.pi / (n + 1)), rel=1e-10)

    def test_jacobi_matrix_is_identity_minus_scaled_a(self):
        A = diagonally_dominant(20, density=0.2, symmetric=False, seed=3)
        G = jacobi_iteration_matrix(A).toarray()
        D_inv = np.diag(1.0 / A.diagonal())
        assert np.allclose(G, np.eye(20) - D_inv @ A.toarray())
        assert np.all(np.diag(G) == 0.0)

    def test_diagonal_dominance_bounds_the_jacobi_radius(self):
        # Row sums of |G| are 1/dominance, which bounds rho(G).
        A = diagonally_dominant(30, density=0.2, dominance=2.0, seed=4)
        R = spectral_radius(jacobi_iteration_matrix(A))
        assert R <= 0.5 + 1e-12

    def test_jacobi_requires_nonzero_diagonal(self):
        A = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            jacobi_iteration_matrix(A)


class TestSpectralRadiusEstimators:
    def test_convergence_based_estimate(self):
        # If the error decays by 1e-4 over 100 iterations, R = (1e-4)^(1/100).
        R = spectral_radius_from_convergence(1.0, 1e-4, 100)
        assert R == pytest.approx(10 ** (-4 / 100))

    def test_convergence_estimate_recovers_jacobi_radius(self):
        # Section 5's estimator, fed the error of an actual Jacobi run,
        # approaches the exact rho(G_J) = cos(pi/(n+1)).
        n, iterations = 10, 200
        A = poisson_1d(n)
        rng = np.random.default_rng(0)
        x_star = rng.standard_normal(n)
        b = A @ x_star
        x = np.zeros(n)
        for _ in range(iterations):
            x = x + (b - A @ x) / A.diagonal()
        R = spectral_radius_from_convergence(
            np.linalg.norm(x_star), np.linalg.norm(x - x_star), iterations
        )
        assert R == pytest.approx(np.cos(np.pi / (n + 1)), rel=2e-2)

    def test_spectral_radius_same_for_sparse_and_dense(self):
        G = jacobi_iteration_matrix(poisson_2d(4))
        assert spectral_radius(G) == spectral_radius(G.toarray())
        assert sp.issparse(G)

    def test_spectral_radius_of_rotation_uses_complex_moduli(self):
        # Eigenvalues +-0.5i: the radius is their modulus, not a real part.
        assert spectral_radius(np.array([[0.0, -0.5], [0.5, 0.0]])) == pytest.approx(0.5)

    def test_convergence_estimate_caps_at_one(self):
        assert spectral_radius_from_convergence(1.0, 2.0, 10) == 1.0

    def test_convergence_estimate_validates(self):
        with pytest.raises(ValueError):
            spectral_radius_from_convergence(1.0, 0.5, 0)
        with pytest.raises(ValueError):
            spectral_radius_from_convergence(-1.0, 0.5, 5)

    def test_spectral_radius_requires_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))
