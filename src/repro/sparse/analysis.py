"""Spectral analysis of iteration matrices for stationary methods.

Theorem 2 of the paper bounds the extra iterations of a stationary method
after a lossy restart in terms of the spectral radius ``R`` of its iteration
matrix ``G`` (``x_{i+1} = G x_i + c``).  This module builds ``G`` for Jacobi,
Gauss-Seidel and SOR splittings and estimates ``R`` either exactly (dense
eigenvalues, small matrices) or via power iteration / the empirical
convergence-rate estimate the paper itself uses ("We estimate the spectral
radius R based on the final relative norm error and the number of convergence
iterations").
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_square_matrix

__all__ = [
    "jacobi_iteration_matrix",
    "gauss_seidel_iteration_matrix",
    "sor_iteration_matrix",
    "spectral_radius",
    "estimate_spectral_radius_power",
    "spectral_radius_from_convergence",
    "is_symmetric",
    "is_diagonally_dominant",
]


def _split(A: sp.csr_matrix):
    """Return (D, L, U) with A = D - L - U (L/U strictly lower/upper, negated)."""
    A = A.tocsr()
    D = sp.diags(A.diagonal(), format="csr")
    L = (-sp.tril(A, k=-1)).tocsr()
    U = (-sp.triu(A, k=1)).tocsr()
    return D, L, U


def jacobi_iteration_matrix(A) -> sp.csr_matrix:
    """Return the Jacobi iteration matrix ``G = D^{-1}(L + U)``."""
    A = check_square_matrix(A)
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Jacobi splitting requires a nonzero diagonal")
    D_inv = sp.diags(1.0 / diag, format="csr")
    _, L, U = _split(A)
    return (D_inv @ (L + U)).tocsr()


def gauss_seidel_iteration_matrix(A) -> np.ndarray:
    """Return the (dense) Gauss-Seidel iteration matrix ``(D - L)^{-1} U``.

    Computed densely, so intended only for modest problem sizes (analysis and
    tests), not for production solves.
    """
    A = check_square_matrix(A)
    D, L, U = _split(A)
    lower = (D - L).toarray()
    return np.linalg.solve(lower, U.toarray())


def sor_iteration_matrix(A, omega: float) -> np.ndarray:
    """Return the dense SOR iteration matrix for relaxation factor ``omega``."""
    A = check_square_matrix(A)
    if not (0.0 < omega < 2.0):
        raise ValueError(f"omega must be in (0, 2), got {omega}")
    D, L, U = _split(A)
    lhs = (D - omega * L).toarray()
    rhs = ((1.0 - omega) * D + omega * U).toarray()
    return np.linalg.solve(lhs, rhs)


def spectral_radius(G) -> float:
    """Exact spectral radius of a (small) matrix via dense eigenvalues."""
    if sp.issparse(G):
        G = G.toarray()
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"G must be square, got shape {G.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(G))))


def estimate_spectral_radius_power(
    G, *, iterations: int = 200, seed: Optional[int] = None, tol: float = 1e-10
) -> float:
    """Estimate the spectral radius of ``G`` with power iteration.

    Works for sparse matrices of any size; converges to the dominant
    eigenvalue magnitude (which equals the spectral radius for the
    diagonalizable iteration matrices arising from standard splittings).
    """
    if not sp.issparse(G):
        G = sp.csr_matrix(np.asarray(G, dtype=np.float64))
    n = G.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(int(iterations)):
        w = G @ v
        norm = np.linalg.norm(w)
        if norm < tol:
            return 0.0
        new_estimate = norm
        v = w / norm
        if abs(new_estimate - estimate) <= tol * max(1.0, new_estimate):
            return float(new_estimate)
        estimate = new_estimate
    return float(estimate)


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


def is_symmetric(A, *, tol: float = 1e-12) -> bool:
    """Return True if ``A`` is numerically symmetric within ``tol``."""
    A = check_square_matrix(A)
    diff = (A - A.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(A.data))) if A.nnz else 1.0)
    return float(np.max(np.abs(diff.data))) <= tol * scale


def is_diagonally_dominant(A, *, strict: bool = False) -> bool:
    """Return True if ``A`` is (strictly) row diagonally dominant."""
    A = check_square_matrix(A)
    diag = np.abs(A.diagonal())
    abs_A = abs(A)
    row_sums = np.asarray(abs_A.sum(axis=1)).ravel() - diag
    if strict:
        return bool(np.all(diag > row_sums))
    return bool(np.all(diag >= row_sums))


def condition_number_estimate(A, *, which: str = "spd") -> float:
    """Rough condition-number estimate for an SPD sparse matrix.

    Uses a handful of Lanczos (``eigsh``) iterations for the extreme
    eigenvalues; intended for reporting, not for tight numerical analysis.
    """
    from scipy.sparse.linalg import eigsh

    A = check_square_matrix(A)
    if which != "spd":
        raise ValueError("only SPD condition estimation is supported")
    n = A.shape[0]
    if n < 3:
        dense = A.toarray()
        eigs = np.linalg.eigvalsh(dense)
        return float(eigs[-1] / max(eigs[0], np.finfo(float).tiny))
    lam_max = float(eigsh(A, k=1, which="LA", return_eigenvectors=False,
                          maxiter=5000)[0])
    lam_min = float(eigsh(A, k=1, which="SA", return_eigenvectors=False,
                          maxiter=5000)[0])
    return lam_max / max(lam_min, np.finfo(float).tiny)
