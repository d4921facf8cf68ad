"""Preconditioners for the iterative solvers.

The Poisson runs of the reproduction solve without preconditioning
(:class:`~repro.precond.base.IdentityPreconditioner`, the solvers' default),
the KKT study of Fig. 3 uses point Jacobi as the paper does, and the
quickstart example shows CG with IC(0).  All share one
:class:`~repro.precond.base.Preconditioner` interface whose ``solve`` method
applies ``M^{-1}`` to a vector.
"""

from repro.precond.base import Preconditioner, IdentityPreconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.ichol import IncompleteCholeskyPreconditioner

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "IncompleteCholeskyPreconditioner",
]
