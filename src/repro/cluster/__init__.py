"""Simulated HPC cluster: machine model and failures.

The paper's evaluation ran on 2,048 cores of the Bebop cluster with roughly
80 GB checkpoints going to a parallel file system.  This subpackage provides
a laptop-scale substitute: vectors and solvers run for real at reduced size,
while wall-clock seconds for compute, checkpoint writes and recovery reads are
*modeled* by :class:`~repro.cluster.machine.ClusterModel`, calibrated against
the numbers the paper itself reports (a 78.8 GB traditional checkpoint takes
about 120 s; Jacobi/GMRES/CG baselines of 50/120/35 minutes at 2,048
processes).
"""

from repro.cluster.machine import MachineSpec, ClusterModel, BEBOP_LIKE
from repro.cluster.failures import (
    FailureInjector,
    FailureEvent,
    FailureModel,
    PoissonFailureModel,
    WeibullFailureModel,
    BurstyFailureModel,
    ScriptedFailureModel,
    make_failure_model,
)

__all__ = [
    "MachineSpec",
    "ClusterModel",
    "BEBOP_LIKE",
    "FailureInjector",
    "FailureEvent",
    "FailureModel",
    "PoissonFailureModel",
    "WeibullFailureModel",
    "BurstyFailureModel",
    "ScriptedFailureModel",
    "make_failure_model",
]
