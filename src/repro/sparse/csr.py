"""A grid Laplacian held as CSR arrays and multiplied without SciPy.

The Poisson builders of :mod:`repro.sparse.poisson` return a
:class:`CSRMatrix`, so a campaign cell on a Poisson problem never loads
SciPy.  Code that needs SciPy's algebra (IC(0), the KKT assembly, the Jacobi
iteration matrix) converts with :meth:`CSRMatrix.to_scipy`.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

__all__ = ["CSRMatrix", "as_scipy", "is_sparse"]


class CSRMatrix:
    """The Kronecker-sum Laplacian of a C-order ``grid``, in SciPy's CSR arrays.

    ``data`` holds one value on the diagonal and ``+1`` or ``-1`` off it.
    ``A @ x`` runs on the grid and is bitwise-identical to SciPy's
    ``csr_matvec``, which sums each row's products left to right in column
    order from ``+0.0``.  ``x`` is copied into a grid with one zero plane
    past the end of every axis, so each stencil offset is one shifted slice
    of the flat padded arrays and a neighbour missing at a boundary reads a
    padding zero; adding a zero to a sum that started at ``+0.0`` changes no
    bit.  The offsets are added in column order, and an off-diagonal ``-1``
    is a subtraction, which is exactly adding the product ``-1 * x``.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 grid: Tuple[int, ...]) -> None:
        n = len(indptr) - 1
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape, self.dtype, self.nnz = (n, n), data.dtype, len(data)
        self.grid = tuple(int(m) for m in grid)
        # Row 0 has no neighbour behind it: the diagonal, then an off-diagonal.
        self._diag = data[0]
        off = data[1] if self.nnz > n else -1.0
        if off not in (1.0, -1.0):
            raise ValueError(f"off-diagonal entries must be +-1, got {off}")
        self._step = np.add if off == 1.0 else np.subtract
        self._padded = tuple(m + 1 for m in self.grid)
        self._inner = tuple(slice(0, m) for m in self.grid)
        self._strides = [int(np.prod(self._padded[axis + 1:], dtype=np.int64))
                         for axis in range(len(self.grid))]

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {x.shape}")
        dtype, step = np.result_type(self.dtype, x.dtype), self._step
        with np.errstate(all="ignore"):  # inf and NaN propagate silently, as in SciPy
            xp = np.zeros(self._padded, dtype=dtype)
            xp[self._inner] = x.reshape(self.grid)
            xp = xp.reshape(-1)
            yp = np.zeros(xp.size, dtype=dtype)
            for stride in self._strides:  # behind: the largest stride first
                ahead = yp[stride:]
                step(ahead, xp[:-stride], out=ahead)
            yp += xp * self._diag
            for stride in reversed(self._strides):  # ahead: the smallest first
                behind = yp[:-stride]
                step(behind, xp[stride:], out=behind)
        return yp.reshape(self._padded)[self._inner].reshape(-1)

    def diagonal(self) -> np.ndarray:
        """The main diagonal: one value on every row."""
        return np.full(self.shape[0], self._diag, dtype=self.dtype)

    def tocsr(self) -> "CSRMatrix":
        """This matrix: it is already CSR."""
        return self

    def to_scipy(self):
        """A ``scipy.sparse.csr_matrix`` of copies of the arrays (imports SciPy)."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape, copy=True)


def is_sparse(A) -> bool:
    """Whether ``A`` is a :class:`CSRMatrix` or a SciPy sparse matrix.

    Never imports SciPy: a SciPy matrix cannot exist unless ``scipy.sparse``
    is already loaded.
    """
    sp = sys.modules.get("scipy.sparse")
    return isinstance(A, CSRMatrix) or (sp is not None and sp.issparse(A))


def as_scipy(A):
    """A sparse ``A`` as a ``scipy.sparse`` CSR matrix, converting a :class:`CSRMatrix`."""
    return A.to_scipy() if isinstance(A, CSRMatrix) else A.tocsr()
