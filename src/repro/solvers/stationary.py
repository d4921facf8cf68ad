"""Stationary iterative methods: Jacobi, Gauss-Seidel, SOR, SSOR.

These are the ``x^(i) = G x^(i-1) + c`` methods of Section 4.4.1.  Their
convergence rate is governed by the spectral radius of the iteration matrix
``G`` (see :mod:`repro.sparse.analysis`), which is what Theorem 2's
extra-iteration bound is phrased in terms of.

Only the approximate solution vector ``x`` is dynamic state, so lossy
checkpointing of stationary methods is the simplest case: restart from the
decompressed ``x`` and keep iterating.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.solvers.base import (
    Callback,
    CheckpointSpec,
    IterativeSolver,
    SolveResult,
    register_solver,
)

__all__ = ["JacobiSolver", "GaussSeidelSolver", "SORSolver", "SSORSolver"]


class _StationarySolver(IterativeSolver):
    """Shared driver for all stationary methods.

    Subclasses implement :meth:`_sweep`, producing ``x_{i+1}`` from ``x_i``
    and its residual ``r_i = b - A x_i``.  ``_solve`` computes ``r_i`` once
    per iteration: its norm is the reported residual and Jacobi's sweep
    consumes it, so Jacobi costs one matvec per iteration.  The triangular
    sweeps import :mod:`scipy.sparse.linalg` in their constructors, so a
    Jacobi-only process never loads it (``docs/architecture.md``, "Imports").
    """

    #: Stationary methods are memoryless — the iterate ``x`` is the entire
    #: dynamic state, so restarting from a checkpointed ``x`` is always the
    #: exact continuation and no extra vectors are declared.  The residual is
    #: a pure function of ``x`` (``||b - A x||``), so the continuation is
    #: bitwise, which is what lets the replay cache catch up from any
    #: recorded snapshot.
    checkpoint_spec = CheckpointSpec(exact_resume=True, bitwise_resume=True)

    def __init__(self, A, **kwargs) -> None:
        # Stationary methods do not use a preconditioner; reject one if passed.
        if kwargs.pop("preconditioner", None) is not None:
            raise ValueError(f"{type(self).__name__} does not accept a preconditioner")
        super().__init__(A, **kwargs)
        diag = self.A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError(f"{type(self).__name__} requires a nonzero diagonal")
        self._diag = diag

    def _sweep(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _solve(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        *,
        callback: Optional[Callback],
        max_iter: int,
        iteration_offset: int,
    ) -> SolveResult:
        x = x0
        b_norm = float(np.linalg.norm(b))
        r = b - self.matvec(x)
        residual_norms = [float(np.linalg.norm(r))]
        converged = self.criterion.has_converged(residual_norms[-1], b_norm)
        iterations = 0
        for local_iter in range(1, max_iter + 1):
            if converged:
                break
            x = self._sweep(x, b, r)
            r = b - self.matvec(x)
            res = float(np.linalg.norm(r))
            residual_norms.append(res)
            iterations = local_iter
            converged = self.criterion.has_converged(res, b_norm)
            self._emit(
                callback, iteration_offset + local_iter, x, res, converged=converged
            )
            if self.criterion.has_diverged(res, b_norm):
                break
        return SolveResult(
            x=x,
            converged=converged,
            iterations=iterations,
            residual_norms=residual_norms,
            solver=self.name,
            b_norm=b_norm,
        )


class JacobiSolver(_StationarySolver):
    """Point Jacobi iteration ``x <- x + D^{-1}(b - A x)``."""

    name = "jacobi"

    def _sweep(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
        return x + r / self._diag


class GaussSeidelSolver(_StationarySolver):
    """Forward Gauss-Seidel sweep ``(D + L) x_{i+1} = b - U x_i``."""

    name = "gauss_seidel"

    def __init__(self, A, **kwargs) -> None:
        super().__init__(A, **kwargs)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        self._lower = sp.tril(self.A, k=0).tocsr()
        self._upper = sp.triu(self.A, k=1).tocsr()

    def _sweep(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
        rhs = b - self._upper @ x
        return sp.linalg.spsolve_triangular(self._lower, rhs, lower=True)


class SORSolver(_StationarySolver):
    """Successive over-relaxation with factor ``omega``."""

    name = "sor"

    def __init__(self, A, *, omega: float = 1.5, **kwargs) -> None:
        super().__init__(A, **kwargs)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        omega = float(omega)
        if not (0.0 < omega < 2.0):
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        self.omega = omega
        diag_matrix = sp.diags(self._diag, format="csr")
        strict_lower = sp.tril(self.A, k=-1).tocsr()
        self._upper = sp.triu(self.A, k=1).tocsr()
        self._lhs = (diag_matrix + omega * strict_lower).tocsr()
        self._diag_matrix = diag_matrix

    def _sweep(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
        rhs = self.omega * (b - self._upper @ x) + (1.0 - self.omega) * (self._diag * x)
        return sp.linalg.spsolve_triangular(self._lhs, rhs, lower=True)


class SSORSolver(_StationarySolver):
    """Symmetric SOR: one forward SOR sweep followed by one backward sweep."""

    name = "ssor"

    def __init__(self, A, *, omega: float = 1.5, **kwargs) -> None:
        super().__init__(A, **kwargs)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        omega = float(omega)
        if not (0.0 < omega < 2.0):
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        self.omega = omega
        diag_matrix = sp.diags(self._diag, format="csr")
        strict_lower = sp.tril(self.A, k=-1).tocsr()
        strict_upper = sp.triu(self.A, k=1).tocsr()
        self._lower = strict_lower
        self._upper = strict_upper
        self._forward_lhs = (diag_matrix + omega * strict_lower).tocsr()
        self._backward_lhs = (diag_matrix + omega * strict_upper).tocsr()

    def _sweep(self, x: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
        omega = self.omega
        rhs = omega * (b - self._upper @ x) + (1.0 - omega) * (self._diag * x)
        half = sp.linalg.spsolve_triangular(self._forward_lhs, rhs, lower=True)
        rhs2 = omega * (b - self._lower @ half) + (1.0 - omega) * (self._diag * half)
        return sp.linalg.spsolve_triangular(self._backward_lhs, rhs2, lower=False)


register_solver("jacobi", JacobiSolver)
register_solver("gauss_seidel", GaussSeidelSolver)
register_solver("sor", SORSolver)
register_solver("ssor", SSORSolver)
