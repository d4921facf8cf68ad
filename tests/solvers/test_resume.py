"""CheckpointableState protocol: per-solver declarations and exact resume."""

import numpy as np
import pytest

from repro.solvers import (
    BiCGStabSolver,
    GMRESSolver,
    JacobiSolver,
    checkpoint_spec_for,
)
from repro.solvers.base import CheckpointSpec, ResumeState, SolveResult


class TestDeclarations:
    def test_registered_specs(self):
        assert checkpoint_spec_for("cg").extra_vectors == ("p",)
        assert checkpoint_spec_for("cg").vector_count == 2
        assert checkpoint_spec_for("bicgstab").extra_vectors == ("r", "r_hat", "p", "v")
        assert checkpoint_spec_for("bicgstab").vector_count == 5
        assert checkpoint_spec_for("gmres").vector_count == 1
        assert checkpoint_spec_for("gmres").restart_boundary_only
        assert checkpoint_spec_for("jacobi").vector_count == 1
        assert checkpoint_spec_for("jacobi").exact_resume

    def test_unknown_method_gets_default_spec(self):
        spec = checkpoint_spec_for("not-a-solver")
        assert spec == CheckpointSpec()
        assert not spec.exact_resume

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
