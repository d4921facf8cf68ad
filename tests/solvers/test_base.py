"""Tests for the solver base infrastructure."""

import numpy as np
import pytest

from repro.solvers import CGSolver, GMRESSolver
from repro.solvers.base import ConvergenceCriterion, SolveResult


class TestConvergenceCriterion:
    def test_threshold_uses_max_of_rtol_and_atol(self):
        crit = ConvergenceCriterion(rtol=1e-3, atol=1e-6)
        assert crit.threshold(10.0) == pytest.approx(1e-2)
        assert crit.threshold(1e-5) == pytest.approx(1e-6)

    def test_has_converged(self):
        crit = ConvergenceCriterion(rtol=1e-2)
        assert crit.has_converged(0.005, 1.0)
        assert not crit.has_converged(0.02, 1.0)

    def test_has_diverged(self):
        crit = ConvergenceCriterion(rtol=1e-2, divtol=100)
        assert crit.has_diverged(1e4, 1.0)
        assert crit.has_diverged(float("nan"), 1.0)
        assert not crit.has_diverged(50.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(rtol=0.0)
        with pytest.raises(ValueError):
            ConvergenceCriterion(rtol=1e-3, atol=-1.0)


class TestSolveResult:
    def test_properties(self):
        result = SolveResult(
            x=np.zeros(3),
            converged=True,
            iterations=4,
            residual_norms=[1.0, 0.1, 0.01],
            solver="test",
            b_norm=2.0,
        )
        assert result.final_residual_norm == 0.01
        assert result.relative_residual == pytest.approx(0.005)

    def test_empty_history(self):
        result = SolveResult(
            x=np.zeros(3), converged=False, iterations=0,
            residual_norms=[], solver="test", b_norm=0.0,
        )
        assert np.isnan(result.final_residual_norm)


class TestSolverConstruction:
    def test_validation_of_parameters(self, poisson_small):
        with pytest.raises(ValueError):
            CGSolver(poisson_small.A, max_iter=0)

    def test_preconditioner_size_mismatch(self, poisson_small, poisson_medium):
        from repro.precond import JacobiPreconditioner

        M = JacobiPreconditioner(poisson_medium.A)
        with pytest.raises(ValueError):
            CGSolver(poisson_small.A, preconditioner=M)


class TestGridShape:
    def test_read_off_the_operator_once(self, poisson_small, monkeypatch):
        import repro.sparse

        solver = CGSolver(poisson_small.A)
        assert solver.grid_shape == (8, 8, 8)
        monkeypatch.setattr(
            repro.sparse, "stencil_grid", lambda A: pytest.fail("recomputed")
        )
        assert solver.grid_shape == (8, 8, 8)

    def test_none_without_a_stencil(self, kkt_small):
        assert GMRESSolver(kkt_small.K).grid_shape is None
