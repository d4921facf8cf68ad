"""BiCGSTAB — stabilised bi-conjugate gradients (van der Vorst).

Not evaluated in the paper; included as an extension so the lossy
checkpointing scheme can be exercised on a short-recurrence nonsymmetric
Krylov method (see the ablation benchmarks).  Like restarted CG, a lossy
recovery simply restarts BiCGSTAB from the decompressed iterate.

Under the exact (traditional/lossless) schemes the solver declares its full
recurrence state through the ``CheckpointableState`` protocol: checkpointing
``x`` plus ``r``, ``r_hat``, ``p``, ``v`` and the scalars ``rho_old``,
``alpha``, ``omega`` allows :meth:`IterativeSolver.solve` to resume the
*bitwise identical* Krylov sequence via ``resume_state`` — the analogue of
CG's Algorithm-1 ``(x, p, rho)`` checkpoint.
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

__all__ = ["BiCGStabSolver"]


class BiCGStabSolver(IterativeSolver):
    """Preconditioned BiCGSTAB for general (nonsymmetric) systems."""

    name = "bicgstab"
    #: Exact resume needs the full recurrence state at the top of the loop:
    #: the recurrence residual ``r`` (checkpointed explicitly — recomputing it
    #: from ``x`` would perturb the sequence), the shadow residual ``r_hat``,
    #: the search direction ``p`` and ``v = A M^{-1} p``, plus the scalars
    #: carried across iterations.
    checkpoint_spec = CheckpointSpec(
        extra_vectors=("r", "r_hat", "p", "v"),
        scalars=("rho_old", "alpha", "omega"),
        exact_resume=True,
        # The full recurrence is checkpointed (nothing is recomputed on
        # resume), so continuation from a captured state is bit-exact —
        # pinned by tests/solvers/test_resume.py.
        bitwise_resume=True,
    )

    def _solve(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        *,
        callback: Optional[Callback],
        max_iter: int,
        iteration_offset: int,
    ) -> SolveResult:
        matvec = self.matvec
        M = self.preconditioner
        x = x0
        b_norm = float(np.linalg.norm(b))

        resume = getattr(self, "_resume_state", None)
        if resume is not None and resume.vectors:
            # Continue the exact recurrence captured at a checkpoint.
            r = np.array(resume.vectors["r"], dtype=np.float64, copy=True)
            r_hat = np.array(resume.vectors["r_hat"], dtype=np.float64, copy=True)
            p = np.array(resume.vectors["p"], dtype=np.float64, copy=True)
            v = np.array(resume.vectors["v"], dtype=np.float64, copy=True)
            if r.shape != x.shape:
                raise ValueError("resume-state vectors have the wrong shape")
            rho_old = float(resume.scalars["rho_old"])
            alpha = float(resume.scalars["alpha"])
            omega = float(resume.scalars["omega"])
        else:
            r = b - matvec(x)
            r_hat = r.copy()
            rho_old = 1.0
            alpha = 1.0
            omega = 1.0
            v = np.zeros_like(r)
            p = np.zeros_like(r)
        res = float(np.linalg.norm(r))
        residual_norms = [res]
        converged = self.criterion.has_converged(res, b_norm)

        iterations = 0
        breakdown = False

        for local_iter in range(1, max_iter + 1):
            if converged:
                break
            rho = float(r_hat @ r)
            if rho == 0.0 or omega == 0.0:
                breakdown = True
                break
            beta = (rho / rho_old) * (alpha / omega)
            p = r + beta * (p - omega * v)
            p_hat = M.solve(p)
            v = matvec(p_hat)
            denom = float(r_hat @ v)
            if denom == 0.0:
                breakdown = True
                break
            alpha = rho / denom
            s = r - alpha * v
            s_norm = float(np.linalg.norm(s))
            if self.criterion.has_converged(s_norm, b_norm):
                x = x + alpha * p_hat
                res = s_norm
                residual_norms.append(res)
                iterations = local_iter
                converged = True
                self._emit(callback, iteration_offset + local_iter, x, res, converged=True)
                break
            s_hat = M.solve(s)
            t = matvec(s_hat)
            t_dot = float(t @ t)
            if t_dot == 0.0:
                breakdown = True
                break
            omega = float(t @ s) / t_dot
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            res = float(np.linalg.norm(r))
            residual_norms.append(res)
            iterations = local_iter
            converged = self.criterion.has_converged(res, b_norm)
            # The emitted extras are the loop-top state of the *next*
            # iteration (rho of this iteration becomes rho_old), exactly what
            # capture_resume_state() must store for a bitwise-exact resume.
            self._emit(
                callback,
                iteration_offset + local_iter,
                x,
                res,
                r=r,
                r_hat=r_hat,
                p=p,
                v=v,
                rho_old=rho,
                alpha=alpha,
                omega=omega,
                converged=converged,
            )
            if self.criterion.has_diverged(res, b_norm):
                break
            rho_old = rho
        return SolveResult(
            x=x,
            converged=converged,
            iterations=iterations,
            residual_norms=residual_norms,
            solver=self.name,
            b_norm=b_norm,
            info={"breakdown": breakdown},
        )
