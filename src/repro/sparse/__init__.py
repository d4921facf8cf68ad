"""Sparse linear-system generators and analysis tools.

This subpackage is the "problem substrate" of the reproduction: it builds the
3D Poisson system of the paper's Eq. (15), synthetic symmetric-indefinite KKT
systems standing in for SuiteSparse KKT240, and a handful of auxiliary
generators (SPD, diagonally dominant, tridiagonal) used by tests and
ablations.  It also provides the spectral analysis (iteration matrix, spectral
radius) needed by Theorem 2's extra-iteration bound for stationary methods.
"""

from repro.sparse.poisson import (
    poisson_1d,
    poisson_2d,
    poisson_3d,
    poisson_system,
    PoissonProblem,
    stencil_grid,
)
from repro.sparse.kkt import kkt_system, KKTProblem
from repro.sparse.matrices import (
    random_spd,
    diagonally_dominant,
    tridiagonal,
    random_sparse_system,
)
from repro.sparse.analysis import (
    jacobi_iteration_matrix,
    gauss_seidel_iteration_matrix,
    sor_iteration_matrix,
    spectral_radius,
    estimate_spectral_radius_power,
    is_symmetric,
    is_diagonally_dominant,
)
from repro.sparse.io import save_csr, load_csr

__all__ = [
    "poisson_1d",
    "poisson_2d",
    "poisson_3d",
    "poisson_system",
    "PoissonProblem",
    "stencil_grid",
    "kkt_system",
    "KKTProblem",
    "random_spd",
    "diagonally_dominant",
    "tridiagonal",
    "random_sparse_system",
    "jacobi_iteration_matrix",
    "gauss_seidel_iteration_matrix",
    "sor_iteration_matrix",
    "spectral_radius",
    "estimate_spectral_radius_power",
    "is_symmetric",
    "is_diagonally_dominant",
    "save_csr",
    "load_csr",
]
