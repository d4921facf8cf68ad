"""Iterative linear solvers (the paper's PETSc substitute).

Implemented from scratch on NumPy/SciPy sparse primitives:

* the stationary method: point Jacobi (:mod:`repro.solvers.stationary`),
* Krylov methods: (preconditioned) conjugate gradient, restarted GMRES(k),
  BiCGSTAB (:mod:`repro.solvers.cg`, :mod:`repro.solvers.gmres`,
  :mod:`repro.solvers.bicgstab`).

All solvers share the :class:`~repro.solvers.base.IterativeSolver` interface:
they are configured once with the matrix/preconditioner/tolerances and expose
``solve(b, x0=..., callback=...)``; the per-iteration callback is the hook the
fault-tolerance layer uses to take checkpoints and to inject failures.
"""

from typing import Dict

from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    IterationState,
    ConvergenceCriterion,
    SolverInterrupt,
    CheckpointSpec,
    ResumeState,
)
from repro.solvers.stationary import JacobiSolver
from repro.solvers.cg import CGSolver
from repro.solvers.gmres import GMRESSolver
from repro.solvers.bicgstab import BiCGStabSolver

#: The checkpoint declaration of the solver each campaign method
#: (:data:`repro.axes.METHODS`) runs; ``kkt`` is GMRES on the KKT system.
CHECKPOINT_SPECS: Dict[str, CheckpointSpec] = {
    "jacobi": JacobiSolver.checkpoint_spec,
    "gmres": GMRESSolver.checkpoint_spec,
    "cg": CGSolver.checkpoint_spec,
    "bicgstab": BiCGStabSolver.checkpoint_spec,
    "kkt": GMRESSolver.checkpoint_spec,
}

__all__ = [
    "IterativeSolver",
    "SolveResult",
    "IterationState",
    "ConvergenceCriterion",
    "SolverInterrupt",
    "CheckpointSpec",
    "ResumeState",
    "CHECKPOINT_SPECS",
    "JacobiSolver",
    "CGSolver",
    "GMRESSolver",
    "BiCGStabSolver",
]
