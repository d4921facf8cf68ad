"""Tests for the restarted GMRES solver."""

import numpy as np
import pytest

from repro.precond import IncompleteCholeskyPreconditioner, JacobiPreconditioner
from repro.solvers import GMRESSolver
from repro.sparse.matrices import diagonally_dominant


class TestConvergence:
    def test_converges_on_spd_poisson(self, poisson_medium):
        result = GMRESSolver(poisson_medium.A, rtol=1e-8, max_iter=5000).solve(
            poisson_medium.b
        )
        assert result.converged
        assert np.allclose(result.x, poisson_medium.x_true, atol=1e-4)

    def test_converges_on_indefinite_kkt(self, kkt_small):
        solver = GMRESSolver(
            kkt_small.K,
            preconditioner=JacobiPreconditioner(kkt_small.K),
            rtol=1e-6,
            max_iter=5000,
        )
        result = solver.solve(kkt_small.b)
        assert result.converged
        # Left preconditioning: convergence is tested on the preconditioned
        # residual, so the true residual can be a couple of orders larger when
        # the Jacobi diagonal has small entries (the -C regularisation block).
        true_res = np.linalg.norm(kkt_small.b - kkt_small.K @ result.x)
        assert true_res / np.linalg.norm(kkt_small.b) < 1e-3

    def test_converges_on_nonsymmetric_system(self):
        A = diagonally_dominant(100, density=0.05, symmetric=False, seed=3)
        x_true = np.cos(np.arange(100) / 7.0)
        b = A @ x_true
        result = GMRESSolver(A, rtol=1e-10, max_iter=2000).solve(b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_preconditioning_reduces_iterations(self, poisson_medium):
        plain = GMRESSolver(poisson_medium.A, rtol=1e-8, max_iter=5000).solve(
            poisson_medium.b
        )
        ic = GMRESSolver(
            poisson_medium.A,
            preconditioner=IncompleteCholeskyPreconditioner(poisson_medium.A),
            rtol=1e-8,
            max_iter=5000,
        ).solve(poisson_medium.b)
        assert ic.iterations < plain.iterations

    def test_smaller_restart_never_faster_than_full(self, poisson_medium):
        small = GMRESSolver(poisson_medium.A, restart=5, rtol=1e-8, max_iter=20000).solve(
            poisson_medium.b
        )
        large = GMRESSolver(poisson_medium.A, restart=60, rtol=1e-8, max_iter=20000).solve(
            poisson_medium.b
        )
        assert large.iterations <= small.iterations


class TestInterface:
    def test_restart_validation(self, poisson_medium):
        with pytest.raises(ValueError):
            GMRESSolver(poisson_medium.A, restart=0)

    def test_callback_reports_cycle_end(self, poisson_medium):
        flags = []
        solver = GMRESSolver(poisson_medium.A, restart=10, rtol=1e-9, max_iter=200)
        solver.solve(
            poisson_medium.b, callback=lambda s: flags.append(s.extras["cycle_end"])
        )
        # Every 10th inner iteration is a cycle end.
        assert flags[9] is True
        assert flags[0] is False

    def test_callback_x_matches_final_solution(self, poisson_medium):
        xs = []
        solver = GMRESSolver(poisson_medium.A, rtol=1e-8, max_iter=5000)
        result = solver.solve(poisson_medium.b, callback=lambda s: xs.append(s.x))
        assert np.allclose(xs[-1], result.x)

    def test_residual_history_decreasing_within_cycle(self, poisson_medium):
        result = GMRESSolver(poisson_medium.A, restart=30, rtol=1e-8, max_iter=5000).solve(
            poisson_medium.b
        )
        norms = np.asarray(result.residual_norms)
        # GMRES minimises the residual over a growing subspace: within the
        # first cycle the residual norm is non-increasing.
        first_cycle = norms[: min(31, norms.size)]
        assert np.all(np.diff(first_cycle) <= 1e-10)

    def test_restart_from_own_iterate_converges(self, poisson_medium):
        """Restarting GMRES from a mid-run iterate reaches the same answer."""
        solver = GMRESSolver(poisson_medium.A, rtol=1e-8, max_iter=5000)
        full = solver.solve(poisson_medium.b)
        captured = {}
        target = max(1, full.iterations // 2)

        def capture(state):
            if state.iteration == target:
                captured["x"] = state.x

        solver.solve(poisson_medium.b, callback=capture)
        resumed = solver.solve(poisson_medium.b, x0=captured["x"])
        assert resumed.converged
        assert np.allclose(resumed.x, full.x, atol=1e-4)

    def test_already_converged_initial_guess(self, poisson_medium):
        solver = GMRESSolver(poisson_medium.A, rtol=1e-6, max_iter=100)
        result = solver.solve(poisson_medium.b, x0=poisson_medium.x_true)
        assert result.converged
        assert result.iterations == 0
