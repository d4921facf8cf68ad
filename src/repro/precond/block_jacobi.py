"""Block-Jacobi preconditioner — PETSc's default and the paper's main choice.

The matrix is partitioned into contiguous diagonal blocks (one block per
simulated rank in the paper's setting); each application of the
preconditioner solves the block-diagonal system exactly via dense LU
factorizations computed once at construction time.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.precond.base import Preconditioner, register_preconditioner

__all__ = ["BlockJacobiPreconditioner"]


class BlockJacobiPreconditioner(Preconditioner):
    """Exact solves on contiguous diagonal blocks of ``A``.

    Parameters
    ----------
    A:
        The system matrix.
    num_blocks:
        Number of equally sized (up to remainder) contiguous blocks.  The
        paper's setup corresponds to one block per MPI rank.
    """

    name = "block_jacobi"

    def __init__(self, A, num_blocks: int = 8) -> None:
        import scipy.linalg as la

        super().__init__(A)
        num_blocks = int(num_blocks)
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        num_blocks = min(num_blocks, self.n)
        self.num_blocks = num_blocks
        self._ranges: List[Tuple[int, int]] = []
        self._factors = []
        bounds = np.linspace(0, self.n, num_blocks + 1, dtype=int)
        csr = self.A.tocsr()
        for start, stop in zip(bounds[:-1], bounds[1:]):
            start, stop = int(start), int(stop)
            if stop <= start:
                continue
            block = csr[start:stop, start:stop].toarray()
            # Guard against a singular diagonal block (e.g. saddle-point zero
            # blocks): fall back to a tiny diagonal shift.
            try:
                factor = la.lu_factor(block)
                # lu_factor does not raise on exactly singular blocks; detect
                # zero pivots explicitly.
                if np.any(np.abs(np.diag(factor[0])) < 1e-300):
                    raise la.LinAlgError("singular block")
            except (la.LinAlgError, ValueError):
                shift = 1e-8 * max(1.0, float(np.max(np.abs(block))) if block.size else 1.0)
                factor = la.lu_factor(block + shift * np.eye(block.shape[0]))
            self._ranges.append((start, stop))
            self._factors.append(factor)
        self._lu_solve = la.lu_solve

    def _solve(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for (start, stop), factor in zip(self._ranges, self._factors):
            z[start:stop] = self._lu_solve(factor, r[start:stop])
        return z


register_preconditioner("block_jacobi", BlockJacobiPreconditioner)
