"""Tests for the empirical extra-iteration measurement (Fig. 2 harness)."""

import numpy as np
import pytest

from repro.compression.lossless import ZlibCompressor
from repro.compression.sz import SZCompressor
from repro.core.extra_iterations import measure_extra_iterations
from repro.solvers import CGSolver, JacobiSolver


class TestMeasureExtraIterations:
    def test_cg_lossy_restart_costs_iterations(self, poisson_medium):
        solver = CGSolver(poisson_medium.A, rtol=1e-7, max_iter=5000)
        study = measure_extra_iterations(
            solver, poisson_medium.b, SZCompressor(1e-4), trials=6, seed=0
        )
        assert study.baseline_iterations > 10
        assert len(study.trials) >= 4
        assert all(t.converged for t in study.trials)
        # Restarted CG after a lossy restart pays a visible delay (paper: 10-25%).
        assert 0.0 < study.mean_extra_fraction < 0.8

    def test_lossless_restart_of_jacobi_costs_nothing(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A, rtol=1e-4, max_iter=20000)
        study = measure_extra_iterations(
            solver, poisson_medium.b, ZlibCompressor(), trials=4, seed=1
        )
        assert study.mean_extra_iterations <= 1.0

    def test_jacobi_lossy_restart_near_zero_delay(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A, rtol=1e-4, max_iter=20000)
        study = measure_extra_iterations(
            solver, poisson_medium.b, SZCompressor(1e-4), trials=4, seed=2
        )
        # Theorem 2 with the Jacobi spectral radius of this problem gives a
        # handful of iterations at most.
        assert study.mean_extra_iterations <= 10

    def test_tighter_bounds_do_not_increase_delay(self, poisson_medium):
        solver = CGSolver(poisson_medium.A, rtol=1e-7, max_iter=5000)
        points = [10, 20, 30]
        loose = measure_extra_iterations(
            solver, poisson_medium.b, SZCompressor(1e-3),
            restart_iterations=points, seed=3,
        )
        tight = measure_extra_iterations(
            solver, poisson_medium.b, SZCompressor(1e-6),
            restart_iterations=points, seed=3,
        )
        assert tight.mean_extra_iterations <= loose.mean_extra_iterations + 2

    def test_explicit_restart_points_clipped(self, poisson_medium):
        solver = CGSolver(poisson_medium.A, rtol=1e-7, max_iter=5000)
        study = measure_extra_iterations(
            solver, poisson_medium.b, SZCompressor(1e-4),
            restart_iterations=[0, 10**9], seed=4,
        )
        assert all(1 <= t.restart_iteration < study.baseline_iterations for t in study.trials)

    def test_trivial_problem_rejected(self):
        A = np.eye(4)
        solver = CGSolver(A, rtol=1e-12, max_iter=10)
        with pytest.raises(ValueError):
            measure_extra_iterations(solver, np.ones(4), SZCompressor(1e-4), trials=2)
