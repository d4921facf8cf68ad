"""Restarted GMRES(k) — Saad & Schultz, with left preconditioning.

The paper runs PETSc's GMRES with the recommended restart length 30
(GMRES(30)).  This implementation uses the Arnoldi process with modified
Gram-Schmidt and Givens rotations, so the (preconditioned) residual norm is
available at every inner iteration without forming the iterate; the iterate is
reconstructed at the end of each restart cycle (or when the callback needs it,
i.e. every iteration, since the checkpointing layer snapshots ``x``).

GMRES is naturally a *restarted* method, which is why the paper's lossy
checkpointing is such a good fit: a recovery is just another restart whose
initial guess happens to be the decompressed checkpoint (Theorem 3 chooses the
error bound so the restart residual stays on the order of the current one).
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

__all__ = ["GMRESSolver"]


class GMRESSolver(IterativeSolver):
    """Restarted GMRES(k) with optional left preconditioning.

    Parameters
    ----------
    restart:
        Restart length ``k`` (default 30, the paper's setting).
    """

    name = "gmres"
    #: GMRES(k) is naturally restarted: at a cycle boundary the entire
    #: dynamic state is the iterate ``x`` — restarting from a checkpointed
    #: ``x`` *is* the exact continuation, so no extra vectors are declared
    #: and exact resume is only meaningful at restart boundaries (the engine
    #: aligns lossy checkpoints to ``cycle_end`` for the same reason).
    #: Restarting from a cycle-end iterate *is* the algorithm's own next
    #: cycle (fresh ``r = b - A x``, fresh Arnoldi basis), so resume at a
    #: declared boundary is a bitwise continuation.
    checkpoint_spec = CheckpointSpec(
        exact_resume=True, restart_boundary_only=True, bitwise_resume=True
    )

    def __init__(self, A, *, restart: int = 30, **kwargs) -> None:
        super().__init__(A, **kwargs)
        restart = int(restart)
        if restart < 1:
            raise ValueError(f"restart must be >= 1, got {restart}")
        self.restart = restart

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
        n = self.n
        k = self.restart
        x = x0

        # Convergence is tested on the preconditioned residual norm, against
        # the preconditioned right-hand side norm (PETSc's default left-PC
        # behaviour).
        b_prec = M.solve(b)
        b_norm = float(np.linalg.norm(b_prec))
        if b_norm == 0.0:
            b_norm = 1.0

        residual_norms = []
        iterations = 0
        converged = False

        # ``r`` is always the preconditioned residual of the current ``x`` (see
        # the divergence check), so a new cycle starts without another matvec.
        r = M.solve(b - matvec(x))
        beta = float(np.linalg.norm(r))
        residual_norms.append(beta)
        if self.criterion.has_converged(beta, b_norm):
            return SolveResult(
                x=x,
                converged=True,
                iterations=0,
                residual_norms=residual_norms,
                solver=self.name,
                b_norm=b_norm,
            )

        while iterations < max_iter and not converged:
            beta = float(np.linalg.norm(r))
            if beta == 0.0:
                converged = True
                break
            V = np.zeros((k + 1, n), dtype=np.float64)
            H = np.zeros((k + 1, k), dtype=np.float64)
            cs = np.zeros(k, dtype=np.float64)
            sn = np.zeros(k, dtype=np.float64)
            g = np.zeros(k + 1, dtype=np.float64)
            V[0] = r / beta
            g[0] = beta

            inner = 0
            for j in range(k):
                if iterations >= max_iter:
                    break
                w = M.solve(matvec(V[j]))
                # Modified Gram-Schmidt orthogonalisation.
                for i in range(j + 1):
                    H[i, j] = float(w @ V[i])
                    w -= H[i, j] * V[i]
                H[j + 1, j] = float(np.linalg.norm(w))
                if H[j + 1, j] > 0.0:
                    V[j + 1] = w / H[j + 1, j]
                # Apply previous Givens rotations to the new column.
                for i in range(j):
                    temp = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                    H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                    H[i, j] = temp
                # New rotation annihilating H[j+1, j].
                denom = float(np.hypot(H[j, j], H[j + 1, j]))
                if denom == 0.0:
                    cs[j], sn[j] = 1.0, 0.0
                else:
                    cs[j] = H[j, j] / denom
                    sn[j] = H[j + 1, j] / denom
                H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
                H[j + 1, j] = 0.0
                g[j + 1] = -sn[j] * g[j]
                g[j] = cs[j] * g[j]

                inner = j + 1
                iterations += 1
                res = abs(float(g[j + 1]))
                residual_norms.append(res)
                converged = self.criterion.has_converged(res, b_norm)

                if callback is not None or converged:
                    x_current = self._form_iterate(x, V, H, g, inner)
                else:
                    x_current = None
                if callback is not None and x_current is not None:
                    self._emit(
                        callback,
                        iteration_offset + iterations,
                        x_current,
                        res,
                        cycle_end=(inner == k),
                        converged=converged,
                    )
                if converged:
                    x = x_current if x_current is not None else x
                    break
                if H[j + 1, j] == 0.0 and denom == 0.0:
                    break
            if not converged and inner > 0:
                x = self._form_iterate(x, V, H, g, inner)
                r = M.solve(b - matvec(x))
                true_res = float(np.linalg.norm(r))
                if self.criterion.has_diverged(true_res, b_norm):
                    break
            if inner == 0:
                break
        return SolveResult(
            x=x,
            converged=converged,
            iterations=iterations,
            residual_norms=residual_norms,
            solver=self.name,
            b_norm=b_norm,
            info={"restart": self.restart},
        )

    @staticmethod
    def _form_iterate(
        x: np.ndarray, V: np.ndarray, H: np.ndarray, g: np.ndarray, inner: int
    ) -> np.ndarray:
        """Reconstruct the iterate from the Arnoldi basis after ``inner`` steps."""
        if inner == 0:
            return x.copy()
        try:
            y = np.linalg.solve(H[:inner, :inner], g[:inner])
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(H[:inner, :inner], g[:inner], rcond=None)[0]
        return x + V[:inner].T @ y
