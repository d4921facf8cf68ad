"""Synthetic symmetric-indefinite KKT (saddle-point) systems.

The paper's Fig. 3 solves the SuiteSparse matrix **KKT240** (about 28 million
equations, generated from a 3D PDE-constrained optimisation problem) with
GMRES and a Jacobi preconditioner.  That matrix is too large to ship or to
factor here, so this module builds a *synthetic* KKT system with the same
structural properties:

.. math::

    K = \\begin{pmatrix} H & B^T \\\\ B & -C \\end{pmatrix}

where ``H`` is an SPD discrete-Laplacian-plus-mass block (the Hessian of the
objective on the state/control variables), ``B`` is a discretised constraint
Jacobian, and ``C`` is a small positive-semidefinite regularisation block.
Such matrices are symmetric indefinite — exactly the property that rules out
CG and makes preconditioned GMRES the paper's solver of choice for Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.sparse.poisson import poisson_2d, poisson_3d
from repro.utils.rng import default_rng

__all__ = ["kkt_system", "KKTProblem"]


@dataclass
class KKTProblem:
    """A synthetic saddle-point (KKT) test problem.

    Attributes
    ----------
    K:
        The symmetric indefinite system matrix.
    b:
        Right-hand side.
    n_primal:
        Number of primal (state/control) unknowns.
    n_dual:
        Number of dual (constraint multiplier) unknowns.
    """

    K: sp.csr_matrix
    b: np.ndarray
    n_primal: int
    n_dual: int


def kkt_system(
    n: int,
    *,
    dims: int = 3,
    regularization: float = 1e-2,
    constraint_fraction: float = 0.5,
    seed: Optional[int] = None,
) -> KKTProblem:
    """Build a synthetic symmetric-indefinite KKT system.

    Parameters
    ----------
    n:
        Grid points per dimension for the primal block (primal size ``n**dims``).
    dims:
        2 or 3; the constraint operator couples neighbouring grid unknowns.
    regularization:
        Magnitude of the ``-C`` block (must be non-negative); small values make
        the system harder (closer to a pure saddle point).
    constraint_fraction:
        Ratio of dual to primal unknowns in (0, 1].
    seed:
        Seed for the random constraint weights and right-hand side.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    if regularization < 0:
        raise ValueError("regularization must be non-negative")
    if not (0.0 < constraint_fraction <= 1.0):
        raise ValueError("constraint_fraction must be in (0, 1]")
    rng = default_rng(seed)

    # Primal Hessian block: Laplacian + mass term, SPD.
    lap = (poisson_3d(n) if dims == 3 else poisson_2d(n)).to_scipy()
    n_primal = lap.shape[0]
    H = (lap + sp.identity(n_primal, format="csr")).tocsr()

    # Constraint Jacobian: each dual unknown couples a few neighbouring primal
    # unknowns with O(1) weights, mimicking a discretised PDE constraint.
    n_dual = max(1, int(round(constraint_fraction * n_primal)))
    rows, cols, vals = [], [], []
    stride = max(1, n_primal // n_dual)
    for i in range(n_dual):
        base = (i * stride) % n_primal
        for offset, weight in ((0, 2.0), (1, -1.0), (n, -1.0)):
            j = (base + offset) % n_primal
            rows.append(i)
            cols.append(j)
            vals.append(weight * (1.0 + 0.1 * rng.standard_normal()))
    B = sp.csr_matrix((vals, (rows, cols)), shape=(n_dual, n_primal))

    C = regularization * sp.identity(n_dual, format="csr")
    K = sp.bmat([[H, B.T], [B, -C]], format="csr")
    # Symmetrise exactly (bmat preserves symmetry analytically; this guards
    # against floating-point asymmetry from the random weights path).
    K = ((K + K.T) * 0.5).tocsr()

    b = rng.standard_normal(K.shape[0])
    b /= np.linalg.norm(b)
    return KKTProblem(K=K, b=b, n_primal=n_primal, n_dual=n_dual)
