"""IC(0): incomplete Cholesky factorization with zero fill-in.

For SPD matrices (the Poisson system of Eq. (15)), PETSc's block-Jacobi/IC
preconditioner uses an incomplete Cholesky factor per block.  This module
implements IC(0) on the lower-triangular CSR pattern of ``A``; application of
the preconditioner is two triangular solves with ``L`` and ``L^T``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner

__all__ = ["IncompleteCholeskyPreconditioner", "ic0_factor"]


def ic0_factor(A: sp.csr_matrix, *, shift: float = 0.0) -> sp.csr_matrix:
    """Return the IC(0) lower-triangular factor ``L`` with ``A ~ L L^T``.

    Parameters
    ----------
    A:
        Symmetric positive-definite sparse matrix.
    shift:
        Optional diagonal shift added before factorization (used to rescue
        borderline-indefinite matrices; 0 by default).
    """
    A = A.tocsr()
    n = A.shape[0]
    L = sp.tril(A, k=0).tocsr().copy()
    if shift:
        L = (L + shift * sp.identity(n, format="csr")).tocsr()
    L.sort_indices()
    data = L.data
    indices = L.indices
    indptr = L.indptr

    # Row-wise IC(0): for each row i, update entries using previous rows that
    # share columns, then scale by the diagonal pivot.
    for i in range(n):
        row_start, row_end = indptr[i], indptr[i + 1]
        row_cols = indices[row_start:row_end]
        if row_cols.size == 0 or row_cols[-1] != i:
            raise ValueError("IC(0) requires structurally nonzero diagonal entries")
        for offset, j in enumerate(row_cols[:-1]):
            pos_ij = row_start + offset
            # l_ij = (a_ij - sum_k<j l_ik l_jk) / l_jj
            j_start, j_end = indptr[j], indptr[j + 1]
            j_cols = indices[j_start:j_end - 1]  # exclude diagonal of row j
            i_cols = row_cols[:offset]
            common, i_idx, j_idx = np.intersect1d(
                i_cols, j_cols, assume_unique=True, return_indices=True
            )
            if common.size:
                dot = float(np.dot(data[row_start + i_idx], data[j_start + j_idx]))
            else:
                dot = 0.0
            pivot = data[indptr[j + 1] - 1]
            if pivot == 0.0:
                raise ZeroDivisionError(f"zero pivot at row {j} in IC(0)")
            data[pos_ij] = (data[pos_ij] - dot) / pivot
        # Diagonal: l_ii = sqrt(a_ii - sum_k<i l_ik^2)
        off_diag = data[row_start:row_end - 1]
        diag_val = data[row_end - 1] - float(np.dot(off_diag, off_diag))
        if diag_val <= 0.0:
            raise np.linalg.LinAlgError(
                f"IC(0) breakdown at row {i}: non-positive pivot {diag_val:g}; "
                "consider a diagonal shift"
            )
        data[row_end - 1] = np.sqrt(diag_val)
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)


class IncompleteCholeskyPreconditioner(Preconditioner):
    """Apply ``(L L^T)^{-1}`` where ``L`` is the IC(0) factor of ``A``.

    If plain IC(0) breaks down (non-positive pivot), a diagonal shift is
    applied progressively until the factorization succeeds.
    """

    def __init__(self, A, *, shift: float = 0.0, max_shift_attempts: int = 8) -> None:
        super().__init__(A)
        import scipy.sparse.linalg  # noqa: F401 - binds sp.linalg
        attempt_shift = float(shift)
        base = float(np.mean(np.abs(self.A.diagonal()))) or 1.0
        last_error: Exception | None = None
        for _ in range(int(max_shift_attempts)):
            try:
                self._L = ic0_factor(self.A, shift=attempt_shift)
                self._LT = self._L.T.tocsr()
                self.shift = attempt_shift
                break
            except (np.linalg.LinAlgError, ZeroDivisionError) as err:
                last_error = err
                attempt_shift = max(attempt_shift * 10.0, 1e-6 * base)
        else:
            raise np.linalg.LinAlgError(
                f"IC(0) failed even with diagonal shifts: {last_error}"
            )

    def _solve(self, r: np.ndarray) -> np.ndarray:
        y = sp.linalg.spsolve_triangular(self._L, r, lower=True)
        return sp.linalg.spsolve_triangular(self._LT, y, lower=False)
