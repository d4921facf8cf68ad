"""Shared configuration for the experiment harness.

Centralises the paper's experimental constants (tolerances per method, the
weak-scaling process counts, MTTI, error bounds) and the knobs that make the
reproduction laptop-sized (local grid size, number of failure-injection
repetitions).  Two presets are provided:

* :data:`SMALL_CONFIG` — a few seconds per experiment; used by the test suite.
* :data:`DEFAULT_CONFIG` — larger grids and more repetitions; used by the
  benchmarks and the example scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.axes import METHODS
from repro.precond import JacobiPreconditioner
from repro.sparse.kkt import KKTProblem, kkt_system
from repro.sparse.poisson import PoissonProblem, poisson_system
from repro.solvers import (
    BiCGStabSolver,
    CGSolver,
    GMRESSolver,
    IterativeSolver,
    JacobiSolver,
)

__all__ = [
    "ExperimentConfig",
    "SMALL_CONFIG",
    "DEFAULT_CONFIG",
    "method_solver",
    "method_problem",
    "campaign_fields",
    "PAPER_RTOL",
]

#: Relative convergence tolerances per method, as stated in Section 5.1.
PAPER_RTOL: Dict[str, float] = {"jacobi": 1e-4, "gmres": 7e-5, "cg": 1e-7}


@dataclass(frozen=True)
class ExperimentConfig:
    """Tunable parameters shared by all experiments.

    Attributes
    ----------
    grid_n:
        Local (reduced) grid points per dimension for the Poisson problem.
    kkt_n:
        Local grid parameter for the synthetic KKT problem (Fig. 3).
    process_counts:
        Paper-scale process counts to sweep (Table 3 / Figs. 4-8).
    mtti_seconds:
        Mean time to interruption for the failure-injected runs.
    error_bound:
        Fixed pointwise-relative bound for Jacobi and CG lossy checkpointing.
    repetitions:
        Failure-injected repetitions per configuration (the paper uses 10).
    rtol:
        Per-method relative tolerances.
    gmres_restart:
        Restart length for GMRES (the paper's GMRES(30)).
    seed:
        Base RNG seed for every stochastic component.
    """

    grid_n: int = 24
    kkt_n: int = 10
    process_counts: Tuple[int, ...] = (256, 512, 768, 1024, 1280, 1536, 1792, 2048)
    mtti_seconds: float = 3600.0
    error_bound: float = 1e-4
    repetitions: int = 5
    rtol: Dict[str, float] = field(default_factory=lambda: dict(PAPER_RTOL))
    gmres_restart: int = 30
    max_iter: int = 100000
    seed: int = 2018

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Fast preset used by the unit/integration tests.
SMALL_CONFIG = ExperimentConfig(
    grid_n=12,
    kkt_n=6,
    process_counts=(256, 1024, 2048),
    repetitions=2,
)

#: Default preset used by benchmarks and example scripts.
DEFAULT_CONFIG = ExperimentConfig()


def method_problem(config: ExperimentConfig, method: str, *, seed_offset: int = 0):
    """Build the local test problem a given method is evaluated on.

    Every method but ``kkt`` uses the 3D Poisson system (Eq. (15)); the KKT
    problem of Fig. 3 is built separately by :func:`kkt_problem`.
    """
    if method in METHODS and method != "kkt":
        return poisson_system(config.grid_n, seed=config.seed + seed_offset)
    raise ValueError(f"unknown method {method!r}")


def method_solver(
    config: ExperimentConfig, method: str, problem: "PoissonProblem | KKTProblem"
) -> IterativeSolver:
    """Instantiate the solver the paper uses for ``method`` on ``problem``."""
    rtol = config.rtol.get(method, 1e-6)
    A = problem.A if isinstance(problem, PoissonProblem) else problem.K
    if method == "jacobi":
        return JacobiSolver(A, rtol=rtol, max_iter=config.max_iter)
    if method == "cg":
        return CGSolver(A, rtol=rtol, max_iter=config.max_iter)
    if method == "bicgstab":
        # Not one of the paper's three methods, but its five-vector exact
        # checkpoint is the stress case for measured payload sizing.
        return BiCGStabSolver(A, rtol=rtol, max_iter=config.max_iter)
    if method == "gmres":
        return GMRESSolver(
            A, rtol=rtol, restart=config.gmres_restart, max_iter=config.max_iter
        )
    raise ValueError(f"unknown method {method!r}")


def campaign_fields(config: ExperimentConfig, method: str) -> Dict[str, object]:
    """RunSpec constructor kwargs capturing this config's problem/solver knobs.

    Every figure module builds its campaign cells through this helper so a
    cell executed in a worker process reconstructs exactly the problem and
    solver that :func:`method_problem`/:func:`method_solver` would build in
    process.
    """
    return {
        "method": method,
        "problem_seed": config.seed,
        "grid_n": config.grid_n,
        "kkt_n": config.kkt_n,
        "rtol": 1e-6 if method == "kkt" else config.rtol.get(method, 1e-6),
        "gmres_restart": config.gmres_restart,
        "max_iter": config.max_iter,
    }


def kkt_problem(config: ExperimentConfig) -> KKTProblem:
    """The synthetic KKT system standing in for SuiteSparse KKT240 (Fig. 3)."""
    return kkt_system(config.kkt_n, dims=3, seed=config.seed)


def kkt_solver(config: ExperimentConfig, problem: KKTProblem) -> GMRESSolver:
    """GMRES(30) with a Jacobi preconditioner, rtol 1e-6, as in Fig. 3."""
    return GMRESSolver(
        problem.K,
        preconditioner=JacobiPreconditioner(problem.K),
        rtol=1e-6,
        restart=config.gmres_restart,
        max_iter=config.max_iter,
    )
