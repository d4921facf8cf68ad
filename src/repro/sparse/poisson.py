"""3D/2D/1D Poisson operators — the paper's Eq. (15) test problem.

The evaluation section of the paper solves the sparse linear system arising
from discretising a 3D Poisson equation on an ``n x n x n`` grid with the
7-point stencil written out in Eq. (15): block-tridiagonal ``A`` whose
innermost blocks ``T`` have ``-6`` on the diagonal and ``+1`` on the first
off-diagonals, with identity coupling blocks between planes/rows.

Two sign conventions are supported:

* ``sign="paper"`` builds the matrix exactly as printed in Eq. (15)
  (diagonal ``-6``), which is symmetric *negative* definite;
* ``sign="spd"`` (default) builds its negation (diagonal ``+6``), which is
  symmetric positive definite and therefore directly usable by CG.  The two
  describe the same linear system up to negating the right-hand side.

:func:`poisson_system` additionally manufactures a smooth exact solution and
the matching right-hand side.  A smooth solution field is important for the
reproduction: the paper's large compression ratios (Table 3) come from the
fact that converged/near-converged solution vectors of PDE problems are
smooth and therefore highly compressible by prediction-based lossy
compressors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix, is_sparse
from repro.utils.rng import default_rng

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "poisson_3d",
    "poisson_system",
    "PoissonProblem",
    "stencil_grid",
]


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ValueError(f"grid dimension n must be >= 1, got {n}")
    return n


def _sign_factor(sign: str) -> float:
    if sign == "spd":
        return 1.0
    if sign == "paper":
        return -1.0
    raise ValueError(f"sign must be 'spd' or 'paper', got {sign!r}")


def poisson_1d(n: int, *, sign: str = "spd", dtype=np.float64) -> CSRMatrix:
    """Return the 1-D Poisson (second-difference) matrix of order ``n``.

    With ``sign="spd"`` the matrix is ``tridiag(-1, 2, -1)``; with
    ``sign="paper"`` it is ``tridiag(1, -2, 1)``.
    """
    return _laplacian_nd((_check_n(n),), sign, dtype)


def _laplacian_nd(shape: Tuple[int, ...], sign: str, dtype) -> CSRMatrix:
    """The d-dimensional 7/5/3-point Laplacian, assembled row by row in CSR.

    This is the Kronecker sum of 1-D second differences: row ``i`` holds
    ``2 d`` on the diagonal and ``-1`` at one stride behind and ahead along
    every axis where the grid has that neighbour (both negated for
    ``sign="paper"``).  The arrays are those ``scipy.sparse.kron`` would
    build: ``int32`` indices, columns sorted within each row.
    """
    s = _sign_factor(sign)
    dims = [int(m) for m in shape]
    for m in dims:
        if m < 1:
            raise ValueError(f"all grid dimensions must be >= 1, got {shape}")
    n = int(np.prod(dims, dtype=np.int64))
    strides = [int(np.prod(dims[axis + 1:], dtype=np.int64)) for axis in range(len(dims))]
    rows = np.arange(n, dtype=np.int32)
    coords = [rows // stride % m for m, stride in zip(dims, strides)]
    # Slots in ascending column order: one stride behind along each axis
    # (largest stride first), the diagonal, one stride ahead (smallest first).
    offsets = [-stride for stride in strides] + [0] + strides[::-1]
    present = np.stack(
        [coord > 0 for coord in coords]
        + [np.ones(n, dtype=bool)]
        + [coord < m - 1 for coord, m in zip(coords[::-1], dims[::-1])],
        axis=1,
    )
    indices = (rows[:, None] + np.array(offsets, dtype=np.int32))[present]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    off, diag = -s, 2.0 * len(dims) * s
    values = np.array([off] * len(dims) + [diag] + [off] * len(dims), dtype=dtype)
    data = np.broadcast_to(values, present.shape)[present]
    return CSRMatrix(indptr, indices, data, dims)


def stencil_grid(A) -> Optional[Tuple[int, ...]]:
    """The C-order grid shape a stencil operator acts on, or ``None``.

    A Kronecker-sum operator on an ``(m_0, ..., m_{d-1})`` grid (the output
    of :func:`_laplacian_nd`) couples row ``i`` only to the rows one stride
    away along each axis, so its positive diagonal offsets are exactly the
    axis strides ``1 | m_{d-1} | m_{d-1} m_{d-2} | ...``, each dividing the
    next and the last dividing ``N``.  This reads those offsets off a CSR
    matrix with one ``bincount`` over ``indices - row`` and, when they form
    such a divisor chain, returns the shape they spell.  A genuine grid never
    couples across an axis boundary, so an offset that occurs on more rows
    than its axis allows (a pentadiagonal band, say, whose offsets 1 and 2
    would spell an ``(N/2, 2)`` "grid") is rejected too.  Dense input,
    matrices without off-diagonal couplings and anything else (KKT blocks,
    random patterns, permuted grids) give ``None``.
    """
    if not is_sparse(A) or len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        return None
    A = A.tocsr()
    n = int(A.shape[0])
    rows = np.repeat(np.arange(n, dtype=A.indices.dtype), np.diff(A.indptr))
    offsets = A.indices - rows
    counts = np.bincount(offsets[offsets > 0])
    strides = np.flatnonzero(counts).tolist()
    if not strides or strides[0] != 1:
        return None
    spans = strides[1:] + [n]
    if any(span % stride for stride, span in zip(strides, spans)):
        return None
    shape = tuple(span // stride for stride, span in zip(strides, spans))
    # Rows with a neighbour one stride ahead: all but the last slab of the axis.
    for stride, extent in zip(strides, shape):
        if counts[stride] > n - n // extent:
            return None
    return shape[::-1]


def poisson_2d(n: int, *, sign: str = "spd", dtype=np.float64) -> CSRMatrix:
    """Return the 5-point 2-D Poisson matrix on an ``n x n`` grid."""
    n = _check_n(n)
    return _laplacian_nd((n, n), sign, dtype)


def poisson_3d(n: int, *, sign: str = "spd", dtype=np.float64) -> CSRMatrix:
    """Return the 7-point 3-D Poisson matrix on an ``n x n x n`` grid.

    This is the paper's Eq. (15) operator (up to the documented sign
    convention): diagonal magnitude 6, six neighbour couplings of magnitude 1.
    """
    n = _check_n(n)
    return _laplacian_nd((n, n, n), sign, dtype)


def _smooth_field(shape: Tuple[int, ...], kind: str, rng) -> np.ndarray:
    """Sample a smooth scalar field on the unit-cube grid of ``shape``."""
    axes = [np.linspace(0.0, 1.0, m + 2)[1:-1] for m in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    if kind == "sine":
        field = np.ones(shape, dtype=np.float64)
        for g in grids:
            field = field * np.sin(np.pi * g)
    elif kind == "gaussian":
        field = np.zeros(shape, dtype=np.float64)
        centers = [(0.35, 0.45, 0.55), (0.7, 0.6, 0.3)]
        widths = [0.12, 0.2]
        for center, width in zip(centers, widths):
            r2 = np.zeros(shape, dtype=np.float64)
            for g, c in zip(grids, center[: len(grids)]):
                r2 = r2 + (g - c) ** 2
            field = field + np.exp(-r2 / (2.0 * width**2))
    elif kind == "random":
        field = rng.standard_normal(shape)
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    return field.reshape(-1)


@dataclass
class PoissonProblem:
    """A fully assembled Poisson test problem.

    Attributes
    ----------
    A:
        The SPD system matrix (CSR).
    b:
        Right-hand side manufactured as ``A @ x_true``.
    x_true:
        The manufactured exact solution (smooth field on the grid).
    n:
        Grid points per dimension.
    dims:
        Spatial dimensionality (1, 2 or 3).
    """

    A: CSRMatrix
    b: np.ndarray
    x_true: np.ndarray
    n: int
    dims: int

    @property
    def size(self) -> int:
        """Number of unknowns (``n ** dims``)."""
        return self.A.shape[0]

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros of the system matrix."""
        return self.A.nnz


def poisson_system(
    n: int,
    *,
    dims: int = 3,
    field: str = "gaussian",
    seed: Optional[int] = None,
    dtype=np.float64,
) -> PoissonProblem:
    """Assemble the SPD Poisson system with a manufactured smooth solution.

    Parameters
    ----------
    n:
        Grid points per dimension.
    dims:
        1, 2 or 3 spatial dimensions (the paper uses 3; lower dimensions are
        convenient for fast unit tests).
    field:
        Shape of the manufactured solution: ``"gaussian"`` (default, two
        smooth blobs exciting many modes), ``"sine"`` (a single Laplacian
        eigenvector — degenerate for Krylov methods, kept for tests) or
        ``"random"`` (rough field, used to stress compressors).
    seed:
        Seed for the ``"random"`` field.
    """
    n = _check_n(n)
    if dims not in (1, 2, 3):
        raise ValueError(f"dims must be 1, 2 or 3, got {dims}")
    rng = default_rng(seed)
    shape = tuple([n] * dims)
    if dims == 1:
        A = poisson_1d(n, dtype=dtype)
    elif dims == 2:
        A = poisson_2d(n, dtype=dtype)
    else:
        A = poisson_3d(n, dtype=dtype)
    x_true = _smooth_field(shape, field, rng).astype(dtype, copy=False)
    b = A @ x_true
    return PoissonProblem(A=A, b=b, x_true=x_true, n=n, dims=dims)
