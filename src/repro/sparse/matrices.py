"""Random sparse-matrix generators used by the solver and property tests.

These complement :mod:`repro.sparse.poisson` with matrices whose properties
are easy to control (condition number, diagonal dominance, symmetry), so that
solver behaviour can be probed away from the single Poisson family the paper
evaluates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import default_rng

__all__ = ["random_spd", "diagonally_dominant"]


def random_spd(
    n: int,
    *,
    density: float = 0.01,
    condition: float = 100.0,
    seed: Optional[int] = None,
) -> sp.csr_matrix:
    """Return a random sparse SPD matrix with roughly the given condition number.

    Built as ``Q D Q^T`` restricted to a sparse pattern via a shifted
    ``A^T A + alpha I`` construction: a random sparse rectangular factor ``R``
    gives ``A = R^T R`` (positive semidefinite), then a diagonal shift sets the
    smallest eigenvalue so that ``cond(A) ~ condition``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must be in (0, 1], got {density}")
    if condition < 1.0:
        raise ValueError(f"condition must be >= 1, got {condition}")
    rng = default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng, format="csr")
    A = (R.T @ R).tocsr()
    # Largest eigenvalue estimate via a few power iterations.
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_max = 1.0
    for _ in range(20):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            break
        lam_max = norm
        v = w / norm
    shift = lam_max / (condition - 1.0) if condition > 1.0 else lam_max
    return (A + shift * sp.identity(n, format="csr")).tocsr()


def diagonally_dominant(
    n: int,
    *,
    density: float = 0.01,
    dominance: float = 1.5,
    symmetric: bool = True,
    seed: Optional[int] = None,
) -> sp.csr_matrix:
    """Return a strictly diagonally dominant sparse matrix.

    ``dominance`` > 1 scales the diagonal to ``dominance * sum(|off-diag|)``
    row-wise, which guarantees convergence of the Jacobi and Gauss-Seidel
    iterations — useful for stationary-method tests that must converge.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if dominance <= 1.0:
        raise ValueError(f"dominance must be > 1, got {dominance}")
    rng = default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, format="csr")
    if symmetric:
        A = ((A + A.T) * 0.5).tocsr()
    A.setdiag(0.0)
    A.eliminate_zeros()
    row_sums = np.abs(A).sum(axis=1).A.ravel() if hasattr(np.abs(A).sum(axis=1), "A") \
        else np.asarray(np.abs(A).sum(axis=1)).ravel()
    diag = dominance * np.maximum(row_sums, 1.0)
    return (A + sp.diags(diag, format="csr")).tocsr()
