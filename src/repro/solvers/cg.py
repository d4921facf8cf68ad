"""(Preconditioned) conjugate gradient — Algorithm 1 of the paper.

The solver follows the classic PCG recurrence (Barrett et al., "Templates"):
per iteration one sparse mat-vec, one preconditioner application, two inner
products and three vector updates, exactly the operation mix the paper
describes under Algorithm 1.

Two features exist specifically for the checkpoint/restart study:

* ``resume_state`` carrying ``p`` and ``rho`` resumes the *same* Krylov
  sequence from a restored direction vector and scalar — this is what
  traditional/lossless checkpointing of CG does (checkpoint ``x`` **and**
  ``p``; line 4 of Algorithm 1);
* calling ``solve`` again with the (lossily) recovered ``x`` as ``x0`` and no
  resume state is the *restarted CG* scheme the paper adopts for lossy
  checkpointing (only ``x`` is checkpointed; the Krylov space is rebuilt).
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

__all__ = ["CGSolver"]


class CGSolver(IterativeSolver):
    """Preconditioned conjugate gradient for SPD systems."""

    name = "cg"
    #: Algorithm 1 checkpoints ``x`` *and* the direction vector ``p`` plus the
    #: scalar ``rho`` so the same Krylov sequence resumes after a recovery
    #: (the residual is recomputed from the restored iterate).  Because that
    #: recomputation — ``r = b - A x`` instead of the recurrence residual —
    #: perturbs the last bits, CG resume is exact only up to rounding and the
    #: spec keeps the default ``bitwise_resume=False``: the replay cache
    #: never uses CG mid-phase snapshots as catch-up bases, and retains every
    #: state of a phase that starts a solve instead.
    checkpoint_spec = CheckpointSpec(
        extra_vectors=("p",), scalars=("rho",), exact_resume=True
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

        r = b - matvec(x)
        res = float(np.linalg.norm(r))
        residual_norms = [res]
        converged = self.criterion.has_converged(res, b_norm)

        resume = getattr(self, "_resume_state", None)
        if resume is not None:
            p = np.array(resume.vectors["p"], dtype=np.float64, copy=True)
            if p.shape != x.shape:
                raise ValueError("resumed direction vector has the wrong shape")
            rho = float(resume.scalars["rho"])
            z = M.solve(r)
        else:
            z = M.solve(r)
            p = z.copy()
            rho = float(r @ z)

        iterations = 0
        breakdown = False
        for local_iter in range(1, max_iter + 1):
            if converged:
                break
            q = matvec(p)
            denom = float(p @ q)
            if denom <= 0.0 or not np.isfinite(denom):
                # Not SPD along this direction (or numerical breakdown).
                breakdown = True
                break
            alpha = rho / denom
            x = x + alpha * p
            r = r - alpha * q
            res = float(np.linalg.norm(r))
            residual_norms.append(res)
            iterations = local_iter
            converged = self.criterion.has_converged(res, b_norm)
            diverged = self.criterion.has_diverged(res, b_norm)
            if not converged and not diverged:
                # Advance the Krylov recurrence *before* emitting so that the
                # callback sees (x_{i+1}, p_{i+1}, rho_{i+1}) — the exact state
                # a traditional checkpoint must capture to resume the same
                # sequence (Algorithm 1 checkpoints i, rho_i, p^(i), x^(i)).
                z = M.solve(r)
                rho_next = float(r @ z)
                if rho_next == 0.0:
                    breakdown = True
                    self._emit(
                        callback, iteration_offset + local_iter, x, res,
                        p=p.copy(), rho=rho, converged=converged,
                    )
                    break
                beta = rho_next / rho
                p = z + beta * p
                rho = rho_next
            self._emit(
                callback,
                iteration_offset + local_iter,
                x,
                res,
                p=p.copy(),
                rho=rho,
                converged=converged,
            )
            if converged or diverged:
                break
        return SolveResult(
            x=x,
            converged=converged,
            iterations=iterations,
            residual_norms=residual_norms,
            solver=self.name,
            b_norm=b_norm,
            info={"breakdown": breakdown},
        )
