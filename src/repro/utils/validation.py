"""Argument-validation helpers shared by all subpackages.

The library is used both programmatically and from experiment scripts, so
invalid arguments should fail early with precise messages rather than deep
inside NumPy/SciPy kernels.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from repro.sparse.csr import is_sparse


def check_positive(value: Real, name: str) -> float:
    """Return ``value`` as float, raising ``ValueError`` unless it is > 0."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_nonnegative(value: Real, name: str) -> float:
    """Return ``value`` as float, raising ``ValueError`` unless it is >= 0."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value}")
    return value


def check_vector(x, name: str, *, dtype=np.float64) -> np.ndarray:
    """Return ``x`` as a contiguous 1-D float array, validating its shape."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def check_square_matrix(A, name: str = "A"):
    """Return ``A`` as CSR, raising unless it is a square 2-D sparse/dense matrix.

    A :class:`~repro.sparse.csr.CSRMatrix` passes through; dense input imports SciPy.
    """
    if is_sparse(A):
        mat = A.tocsr()
    else:
        import scipy.sparse as sp

        arr = np.asarray(A, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
        mat = sp.csr_matrix(arr)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return mat


