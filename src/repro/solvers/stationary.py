"""The stationary method of Section 4.4.1: point Jacobi.

Jacobi is an ``x^(i) = G x^(i-1) + c`` method.  Its convergence rate is
governed by the spectral radius of the iteration matrix ``G`` (see
:mod:`repro.sparse.analysis`), which is what Theorem 2's extra-iteration
bound is phrased in terms of.

Only the approximate solution vector ``x`` is dynamic state, so lossy
checkpointing of a stationary method is the simplest case: restart from the
decompressed ``x`` and keep iterating.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.base import (
    Callback,
    CheckpointSpec,
    IterativeSolver,
    SolveResult,
)

__all__ = ["JacobiSolver"]


class JacobiSolver(IterativeSolver):
    """Point Jacobi iteration ``x <- x + D^{-1}(b - A x)``.

    ``_solve`` computes the residual ``r_i = b - A x_i`` once per iteration:
    its norm is the reported residual and the sweep consumes it, so an
    iteration costs one matvec.
    """

    name = "jacobi"

    #: Jacobi is memoryless — the iterate ``x`` is the entire dynamic state,
    #: so restarting from a checkpointed ``x`` is always the exact
    #: continuation and no extra vectors are declared.  The residual is a
    #: pure function of ``x`` (``||b - A x||``), so the continuation is
    #: bitwise, which is what lets the replay cache catch up from any
    #: recorded snapshot.
    checkpoint_spec = CheckpointSpec(exact_resume=True, bitwise_resume=True)

    def __init__(self, A, **kwargs) -> None:
        # Jacobi does not use a preconditioner; reject one if passed.
        if kwargs.pop("preconditioner", None) is not None:
            raise ValueError(f"{type(self).__name__} does not accept a preconditioner")
        super().__init__(A, **kwargs)
        diag = self.A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError(f"{type(self).__name__} requires a nonzero diagonal")
        self._diag = diag

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
            x = x + r / self._diag
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
