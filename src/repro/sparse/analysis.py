"""Spectral analysis of iteration matrices for stationary methods.

Theorem 2 of the paper bounds the extra iterations of a stationary method
after a lossy restart in terms of the spectral radius ``R`` of its iteration
matrix ``G`` (``x_{i+1} = G x_i + c``).  This module builds the Jacobi ``G``
and computes ``R`` either exactly (dense eigenvalues, small matrices) or from
the empirical convergence-rate estimate the paper itself uses ("We estimate
the spectral radius R based on the final relative norm error and the number
of convergence iterations").
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse.csr import as_scipy, is_sparse
from repro.utils.validation import check_square_matrix

__all__ = [
    "jacobi_iteration_matrix",
    "spectral_radius",
    "spectral_radius_from_convergence",
]


def jacobi_iteration_matrix(A) -> sp.csr_matrix:
    """Return the Jacobi iteration matrix ``G = D^{-1}(L + U)``."""
    A = as_scipy(check_square_matrix(A))
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi splitting requires a nonzero diagonal")
    D_inv = sp.diags(1.0 / diag, format="csr")
    L_plus_U = sp.diags(diag, format="csr") - A
    return (D_inv @ L_plus_U).tocsr()


def spectral_radius(G) -> float:
    """Exact spectral radius of a (small) matrix via dense eigenvalues."""
    if is_sparse(G):
        G = as_scipy(G).toarray()
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"G must be square, got shape {G.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def spectral_radius_from_convergence(
    initial_error: float, final_error: float, iterations: int
) -> float:
    """Estimate R from observed error reduction over ``iterations`` steps.

    This is the estimator the paper uses for the Jacobi analysis in Section 5
    (``||x_i - x*|| ~ R^i ||x_0 - x*||``), i.e.
    ``R = (final/initial)^(1/iterations)``.
    """
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if initial_error <= 0 or final_error <= 0:
        raise ValueError("errors must be positive")
    if final_error > initial_error:
        return 1.0
    return float((final_error / initial_error) ** (1.0 / iterations))
