"""Tests for the (preconditioned) conjugate gradient solver."""

import numpy as np
import pytest

from repro.precond import IncompleteCholeskyPreconditioner
from repro.solvers import CGSolver
from repro.solvers.base import ResumeState
from repro.sparse.matrices import random_spd


class TestConvergence:
    def test_converges_to_manufactured_solution(self, poisson_medium):
        result = CGSolver(poisson_medium.A, rtol=1e-10, max_iter=5000).solve(
            poisson_medium.b
        )
        assert result.converged
        assert np.allclose(result.x, poisson_medium.x_true, atol=1e-6)

    def test_exact_in_n_iterations(self):
        # CG converges in at most n iterations in exact arithmetic.
        A = random_spd(30, density=0.3, condition=50, seed=0)
        b = np.ones(30)
        result = CGSolver(A, rtol=1e-12, max_iter=60).solve(b)
        assert result.converged
        assert result.iterations <= 35

    def test_preconditioning_reduces_iterations(self, poisson_medium):
        plain = CGSolver(poisson_medium.A, rtol=1e-9, max_iter=5000).solve(poisson_medium.b)
        ic = CGSolver(
            poisson_medium.A,
            preconditioner=IncompleteCholeskyPreconditioner(poisson_medium.A),
            rtol=1e-9,
            max_iter=5000,
        ).solve(poisson_medium.b)
        assert ic.converged and plain.converged
        assert ic.iterations < plain.iterations

    def test_non_spd_detected_as_breakdown(self, kkt_small):
        result = CGSolver(kkt_small.K, rtol=1e-10, max_iter=500).solve(kkt_small.b)
        assert result.info["breakdown"] or not result.converged


def _krylov_resume(p, rho) -> ResumeState:
    """The ``(p, rho)`` resume state a traditional CG checkpoint stores."""
    return ResumeState(iteration=0, vectors={"p": p}, scalars={"rho": rho})


class TestResumeState:
    def test_resume_state_resumes_identical_trajectory(self, poisson_medium):
        """Checkpointing (x, p, rho) and resuming matches the uninterrupted run."""
        solver = CGSolver(poisson_medium.A, rtol=1e-11, max_iter=5000)
        full = solver.solve(poisson_medium.b)

        captured = {}
        checkpoint_at = full.iterations // 2

        def capture(state):
            if state.iteration == checkpoint_at:
                captured["x"] = state.x
                captured["p"] = state.extras["p"]
                captured["rho"] = state.extras["rho"]

        solver.solve(poisson_medium.b, callback=capture)
        resumed = solver.solve(
            poisson_medium.b,
            x0=captured["x"],
            resume_state=_krylov_resume(captured["p"], captured["rho"]),
        )
        # Same remaining number of iterations (up to one) and same solution.
        assert abs((checkpoint_at + resumed.iterations) - full.iterations) <= 1
        assert np.allclose(resumed.x, full.x, atol=1e-8)

    def test_cold_restart_needs_more_iterations_than_resumed(self, poisson_medium):
        """Restarting from x alone (restarted CG) pays extra iterations."""
        solver = CGSolver(poisson_medium.A, rtol=1e-11, max_iter=5000)
        full = solver.solve(poisson_medium.b)
        captured = {}
        checkpoint_at = full.iterations // 2

        def capture(state):
            if state.iteration == checkpoint_at:
                captured["x"] = state.x
                captured["p"] = state.extras["p"]
                captured["rho"] = state.extras["rho"]

        solver.solve(poisson_medium.b, callback=capture)
        resumed = solver.solve(
            poisson_medium.b,
            x0=captured["x"],
            resume_state=_krylov_resume(captured["p"], captured["rho"]),
        )
        cold = solver.solve(poisson_medium.b, x0=captured["x"])
        assert cold.iterations >= resumed.iterations

    def test_resume_state_wrong_shape_rejected(self, poisson_medium):
        solver = CGSolver(poisson_medium.A)
        with pytest.raises(ValueError, match="wrong shape"):
            solver.solve(poisson_medium.b, resume_state=_krylov_resume(np.ones(3), 1.0))


class TestInterface:
    def test_callback_extras_contain_krylov_state(self, poisson_medium):
        extras_seen = []
        solver = CGSolver(poisson_medium.A, rtol=1e-6, max_iter=100)
        solver.solve(poisson_medium.b, callback=lambda s: extras_seen.append(set(s.extras)))
        assert all({"p", "rho"} <= keys for keys in extras_seen)

    def test_residual_matches_true_residual(self, poisson_medium):
        solver = CGSolver(poisson_medium.A, rtol=1e-8, max_iter=5000)
        result = solver.solve(poisson_medium.b)
        true_res = np.linalg.norm(poisson_medium.b - poisson_medium.A @ result.x)
        assert result.final_residual_norm == pytest.approx(true_res, rel=1e-6, abs=1e-12)

    def test_zero_rhs_converges_immediately(self, poisson_medium):
        result = CGSolver(poisson_medium.A, rtol=1e-8).solve(
            np.zeros(poisson_medium.size) + 1e-300
        )
        assert result.iterations == 0

    def test_max_iter_zero_allowed(self, poisson_medium):
        result = CGSolver(poisson_medium.A).solve(poisson_medium.b, max_iter=0)
        assert result.iterations == 0
        assert not result.converged
