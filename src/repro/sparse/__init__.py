"""Sparse linear-system generators and analysis tools.

This subpackage is the "problem substrate" of the reproduction: it builds the
3D Poisson system of the paper's Eq. (15), synthetic symmetric-indefinite KKT
systems standing in for SuiteSparse KKT240, and random SPD and diagonally
dominant matrices used by the solver tests.  It also provides the Jacobi
iteration matrix and spectral radius that Theorem 2's extra-iteration bound
for stationary methods needs.

The Poisson builders return a :class:`~repro.sparse.csr.CSRMatrix`: the CSR
arrays SciPy would build, with a NumPy matvec bitwise-identical to SciPy's, so
a campaign cell on a Poisson problem never imports SciPy.  The modules that
need SciPy (``kkt``, ``matrices``, ``analysis``) load on first use of a name.
"""

from importlib import import_module

from repro.sparse.csr import CSRMatrix
from repro.sparse.poisson import (
    poisson_1d,
    poisson_2d,
    poisson_3d,
    poisson_system,
    PoissonProblem,
    stencil_grid,
)

#: Names whose modules import SciPy, loaded on first access (PEP 562).
_LAZY = {
    "kkt_system": "kkt",
    "KKTProblem": "kkt",
    "random_spd": "matrices",
    "diagonally_dominant": "matrices",
    "jacobi_iteration_matrix": "analysis",
    "spectral_radius": "analysis",
}

__all__ = [
    "CSRMatrix",
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


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
