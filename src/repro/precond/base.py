"""Preconditioner interface.

A preconditioner approximates the action of ``A^{-1}``: its :meth:`solve`
method returns ``z = M^{-1} r``.  All preconditioners are built once from the
system matrix (a *static* variable in the paper's checkpoint classification)
and are re-built, not checkpointed, after a failure.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import check_square_matrix, check_vector

__all__ = ["Preconditioner", "IdentityPreconditioner"]


class Preconditioner(abc.ABC):
    """Abstract preconditioner: apply ``M^{-1}`` to a residual vector."""

    def __init__(self, A) -> None:
        self.A = check_square_matrix(A)
        self.n = self.A.shape[0]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Return ``z = M^{-1} r``."""
        r = check_vector(r, "r")
        if r.size != self.n:
            raise ValueError(f"r has length {r.size}, expected {self.n}")
        return self._solve(r)

    @abc.abstractmethod
    def _solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to a validated vector."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: ``M = I``."""

    def _solve(self, r: np.ndarray) -> np.ndarray:
        return r.copy()
