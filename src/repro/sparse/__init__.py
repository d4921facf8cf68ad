"""Sparse linear-system generators and analysis tools.

This subpackage is the "problem substrate" of the reproduction: it builds the
3D Poisson system of the paper's Eq. (15), synthetic symmetric-indefinite KKT
systems standing in for SuiteSparse KKT240, and random SPD and diagonally
dominant matrices used by the solver tests.  It also provides the Jacobi
iteration matrix and spectral radius that Theorem 2's extra-iteration bound
for stationary methods needs.
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
from repro.sparse.matrices import random_spd, diagonally_dominant
from repro.sparse.analysis import jacobi_iteration_matrix, spectral_radius

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
    "jacobi_iteration_matrix",
    "spectral_radius",
]
