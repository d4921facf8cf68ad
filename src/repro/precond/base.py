"""Preconditioner interface and factory.

A preconditioner approximates the action of ``A^{-1}``: its :meth:`solve`
method returns ``z = M^{-1} r``.  All preconditioners are built once from the
system matrix (a *static* variable in the paper's checkpoint classification)
and are re-built, not checkpointed, after a failure.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import check_square_matrix, check_vector

__all__ = ["Preconditioner", "IdentityPreconditioner", "make_preconditioner",
           "register_preconditioner"]


class Preconditioner(abc.ABC):
    """Abstract preconditioner: apply ``M^{-1}`` to a residual vector."""

    #: Registry name; subclasses override.
    name: str = "abstract"

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

    def as_linear_operator(self) -> sp.linalg.LinearOperator:
        """Expose the preconditioner as a SciPy ``LinearOperator`` (for tests)."""
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg

        return sp.linalg.LinearOperator((self.n, self.n), matvec=self.solve)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class IdentityPreconditioner(Preconditioner):
    """No preconditioning: ``M = I``."""

    name = "identity"

    def _solve(self, r: np.ndarray) -> np.ndarray:
        return r.copy()


_REGISTRY: Dict[str, Callable[..., Preconditioner]] = {}


def register_preconditioner(name: str, factory: Callable[..., Preconditioner]) -> None:
    """Register a preconditioner factory for :func:`make_preconditioner`."""
    _REGISTRY[name] = factory


def make_preconditioner(name: str, A, **kwargs) -> Preconditioner:
    """Build a registered preconditioner for matrix ``A`` by name.

    Names registered by the built-ins: ``"identity"``, ``"jacobi"``,
    ``"block_jacobi"``, ``"ilu0"``, ``"ic0"``, ``"ssor"``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown preconditioner {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(A, **kwargs)


register_preconditioner("identity", IdentityPreconditioner)
