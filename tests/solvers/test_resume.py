"""CheckpointableState protocol: per-solver declarations and exact resume."""

import numpy as np
import pytest

from repro.axes import METHODS
from repro.solvers import (
    CHECKPOINT_SPECS,
    BiCGStabSolver,
    GMRESSolver,
    JacobiSolver,
)
from repro.solvers.base import CheckpointSpec, ResumeState, SolveResult


class TestDeclarations:
    def test_method_specs(self):
        assert CHECKPOINT_SPECS["cg"].extra_vectors == ("p",)
        assert CHECKPOINT_SPECS["cg"].vector_count == 2
        assert CHECKPOINT_SPECS["bicgstab"].extra_vectors == ("r", "r_hat", "p", "v")
        assert CHECKPOINT_SPECS["bicgstab"].vector_count == 5
        assert CHECKPOINT_SPECS["gmres"].vector_count == 1
        assert CHECKPOINT_SPECS["gmres"].restart_boundary_only
        assert CHECKPOINT_SPECS["kkt"] is CHECKPOINT_SPECS["gmres"]
        assert CHECKPOINT_SPECS["jacobi"].vector_count == 1
        assert CHECKPOINT_SPECS["jacobi"].exact_resume

    def test_one_spec_per_campaign_method(self):
        assert tuple(CHECKPOINT_SPECS) == METHODS

    @pytest.mark.parametrize("method", METHODS)
    def test_campaign_solver_declares_its_method_spec(self, method):
        from repro.experiments.config import (
            ExperimentConfig,
            kkt_problem,
            kkt_solver,
            method_problem,
            method_solver,
        )

        config = ExperimentConfig(grid_n=4, kkt_n=3, max_iter=10)
        if method == "kkt":
            solver = kkt_solver(config, kkt_problem(config))
        else:
            solver = method_solver(config, method, method_problem(config, method))
        # The lookup the scheme prices payloads with is the spec of the
        # solver a campaign cell of that method actually runs.
        assert solver.checkpoint_spec is CHECKPOINT_SPECS[method]

    def test_unsupported_solver_rejects_resume_state(self, poisson_small):
        class NoResumeSolver(JacobiSolver):
            checkpoint_spec = CheckpointSpec()

        solver = NoResumeSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        with pytest.raises(ValueError, match="exact resume"):
            solver.solve(poisson_small.b, resume_state=ResumeState(iteration=0))


def _capture_all(solver, b, **kwargs):
    states = []
    result = solver.solve(b, callback=states.append, **kwargs)
    return result, states


class TestBiCGStabExactResume:
    def test_resume_reproduces_uninterrupted_sequence_bitwise(self, poisson_medium):
        solver = BiCGStabSolver(poisson_medium.A, rtol=1e-8, max_iter=500)
        full, states = _capture_all(solver, poisson_medium.b)
        assert full.converged
        k = min(4, len(states) - 2)
        snapshot = states[k]
        resume = solver.capture_resume_state(snapshot)
        assert resume is not None
        assert set(resume.vectors) == {"r", "r_hat", "p", "v"}
        assert set(resume.scalars) == {"rho_old", "alpha", "omega"}

        resumed = solver.solve(
            poisson_medium.b,
            x0=snapshot.x,
            resume_state=resume,
            iteration_offset=snapshot.iteration,
        )
        assert resumed.converged
        # The continued sequence is bitwise identical to the uninterrupted
        # run: same residuals, same final iterate.  states[k] is iteration
        # k+1, so the continuation covers residual_norms[k+2:].
        tail = full.residual_norms[k + 2 :]
        assert resumed.residual_norms[1:] == tail
        np.testing.assert_array_equal(resumed.x, full.x)
        assert snapshot.iteration + resumed.iterations == full.iterations

    def test_restart_without_state_differs(self, poisson_medium):
        solver = BiCGStabSolver(poisson_medium.A, rtol=1e-8, max_iter=500)
        full, states = _capture_all(solver, poisson_medium.b)
        k = min(4, len(states) - 2)
        snapshot = states[k]
        restarted = solver.solve(poisson_medium.b, x0=snapshot.x)
        tail = full.residual_norms[k + 2 :]
        # A cold restart rebuilds the Krylov space — not the same sequence.
        assert restarted.residual_norms[1:] != tail


class TestBoundaryOnlyAndMemoryless:
    def test_gmres_captures_only_at_cycle_end(self, poisson_medium):
        solver = GMRESSolver(poisson_medium.A, rtol=1e-10, restart=5, max_iter=200)
        _, states = _capture_all(solver, poisson_medium.b)
        mid_cycle = [s for s in states if not s.extras.get("cycle_end", False)]
        boundary = [
            s
            for s in states
            if s.extras.get("cycle_end", False) or s.extras.get("converged", False)
        ]
        assert boundary, "expected at least one completed GMRES cycle"
        assert solver.capture_resume_state(boundary[0]) is not None
        if mid_cycle:
            assert solver.capture_resume_state(mid_cycle[0]) is None

    def test_gmres_accepts_resume_state_as_restart(self, poisson_medium):
        solver = GMRESSolver(poisson_medium.A, rtol=1e-10, restart=5, max_iter=200)
        _, states = _capture_all(solver, poisson_medium.b)
        boundary = next(s for s in states if s.extras.get("cycle_end", False))
        resume = solver.capture_resume_state(boundary)
        resumed = solver.solve(poisson_medium.b, x0=boundary.x, resume_state=resume)
        restarted = solver.solve(poisson_medium.b, x0=boundary.x)
        # At a restart boundary, "resume" and "restart from x" coincide.
        assert resumed.residual_norms == restarted.residual_norms

    def test_stationary_capture_is_bare_x(self, poisson_small):
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=10000)
        _, states = _capture_all(solver, poisson_small.b)
        resume = solver.capture_resume_state(states[0])
        assert resume is not None
        assert resume.vectors == {}
        assert resume.scalars == {}
        resumed = solver.solve(poisson_small.b, x0=states[0].x, resume_state=resume)
        assert isinstance(resumed, SolveResult)
        assert resumed.converged
