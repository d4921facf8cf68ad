"""Point-Jacobi (diagonal) preconditioner.

``M = diag(A)``; the preconditioner the paper selects for the KKT240 / GMRES
study in Fig. 3 after scanning PETSc's preconditioner list.
"""

from __future__ import annotations

import numpy as np

from repro.precond.base import Preconditioner

__all__ = ["JacobiPreconditioner"]


class JacobiPreconditioner(Preconditioner):
    """Diagonal scaling preconditioner ``z = D^{-1} r``."""

    def __init__(self, A) -> None:
        super().__init__(A)
        diag = self.A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioning requires a nonzero diagonal")
        self._inv_diag = 1.0 / diag

    def _solve(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_diag
