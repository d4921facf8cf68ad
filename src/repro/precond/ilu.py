"""ILU(0): incomplete LU factorization with zero fill-in.

Implements the classic IKJ-variant ILU(0) algorithm directly on the CSR
structure: the factors ``L`` (unit lower) and ``U`` (upper) share the sparsity
pattern of ``A`` and no fill is introduced.  This is the "ILU" inside PETSc's
default block-Jacobi/ILU preconditioner that the paper uses for CG and GMRES
on the Poisson problem.

The factorization is performed row by row with NumPy-vectorised inner
updates; it targets the moderate problem sizes of this reproduction (up to a
few hundred thousand unknowns), not extreme scale.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner, register_preconditioner

__all__ = ["ILU0Preconditioner", "ilu0_factor"]


def ilu0_factor(A: sp.csr_matrix) -> sp.csr_matrix:
    """Return the combined LU factor of ILU(0) stored in one CSR matrix.

    The returned matrix holds ``U`` on and above the diagonal and the strictly
    lower part of ``L`` below it (unit diagonal of ``L`` implied), using the
    sparsity pattern of ``A``.
    """
    A = A.tocsr().copy()
    A.sort_indices()
    n = A.shape[0]
    data = A.data
    indices = A.indices
    indptr = A.indptr
    # Column -> position lookup per row is built on the fly.
    diag_pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        row_cols = indices[indptr[i]:indptr[i + 1]]
        hit = np.searchsorted(row_cols, i)
        if hit < row_cols.size and row_cols[hit] == i:
            diag_pos[i] = indptr[i] + hit
    if np.any(diag_pos < 0):
        raise ValueError("ILU(0) requires every diagonal entry to be structurally nonzero")

    for i in range(1, n):
        row_start, row_end = indptr[i], indptr[i + 1]
        row_cols = indices[row_start:row_end]
        # Eliminate using previous rows k < i present in row i's pattern.
        lower_positions = np.nonzero(row_cols < i)[0]
        for offset in lower_positions:
            pos_ik = row_start + offset
            k = row_cols[offset]
            pivot = data[diag_pos[k]]
            if pivot == 0.0:
                raise ZeroDivisionError(f"zero pivot encountered at row {k} in ILU(0)")
            factor = data[pos_ik] / pivot
            data[pos_ik] = factor
            # Update row i entries for columns j > k that also exist in row k.
            k_start, k_end = indptr[k], indptr[k + 1]
            k_cols = indices[k_start:k_end]
            k_vals = data[k_start:k_end]
            upper_mask = k_cols > k
            if not np.any(upper_mask):
                continue
            target_cols = k_cols[upper_mask]
            target_vals = k_vals[upper_mask]
            # Positions of target_cols within row i's pattern (if present).
            insert = np.searchsorted(row_cols, target_cols)
            valid = (insert < row_cols.size) & (row_cols[np.minimum(insert, row_cols.size - 1)] == target_cols)
            if np.any(valid):
                positions = row_start + insert[valid]
                data[positions] -= factor * target_vals[valid]
    factored = sp.csr_matrix((data, indices, indptr), shape=A.shape)
    return factored


class ILU0Preconditioner(Preconditioner):
    """Apply ``(LU)^{-1}`` where ``L``/``U`` come from ILU(0) of ``A``."""

    name = "ilu0"

    def __init__(self, A) -> None:
        super().__init__(A)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        factored = ilu0_factor(self.A)
        # Split into L (unit diagonal) and U triangular factors once so each
        # application is just two sparse triangular solves.
        lower = sp.tril(factored, k=-1).tocsr()
        self._L = (lower + sp.identity(self.n, format="csr")).tocsr()
        self._U = sp.triu(factored, k=0).tocsr()

    def _solve(self, r: np.ndarray) -> np.ndarray:
        y = sp.linalg.spsolve_triangular(self._L, r, lower=True, unit_diagonal=True)
        return sp.linalg.spsolve_triangular(self._U, y, lower=False)


register_preconditioner("ilu0", ILU0Preconditioner)
