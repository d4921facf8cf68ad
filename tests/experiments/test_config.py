"""Tests for the experiment configuration."""

import pytest

from repro.axes import METHODS
from repro.experiments.config import (
    DEFAULT_CONFIG,
    PAPER_RTOL,
    SMALL_CONFIG,
    kkt_problem,
    kkt_solver,
    method_problem,
    method_solver,
)
from repro.solvers import CGSolver, GMRESSolver, JacobiSolver


class TestConfig:
    def test_paper_tolerances(self):
        assert PAPER_RTOL == {"jacobi": 1e-4, "gmres": 7e-5, "cg": 1e-7}
        assert DEFAULT_CONFIG.rtol["cg"] == 1e-7

    def test_paper_process_counts(self):
        assert DEFAULT_CONFIG.process_counts == (256, 512, 768, 1024, 1280, 1536, 1792, 2048)

    def test_with_overrides(self):
        cfg = SMALL_CONFIG.with_overrides(repetitions=9)
        assert cfg.repetitions == 9
        assert SMALL_CONFIG.repetitions != 9

    def test_small_config_is_smaller(self):
        assert SMALL_CONFIG.grid_n < DEFAULT_CONFIG.grid_n


class TestFactories:
    @pytest.mark.parametrize(
        "method,cls", [("jacobi", JacobiSolver), ("gmres", GMRESSolver), ("cg", CGSolver)]
    )
    def test_method_solver_types_and_tolerances(self, method, cls):
        problem = method_problem(SMALL_CONFIG, method)
        solver = method_solver(SMALL_CONFIG, method, problem)
        assert isinstance(solver, cls)
        assert solver.criterion.rtol == PAPER_RTOL[method]

    def test_gmres_restart_is_30(self):
        problem = method_problem(SMALL_CONFIG, "gmres")
        solver = method_solver(SMALL_CONFIG, "gmres", problem)
        assert solver.restart == 30

    def test_unknown_method_rejected(self):
        # "sor" has no campaign solver, and "kkt" builds its own problem.
        for method in ("simplex", "sor", "kkt"):
            with pytest.raises(ValueError, match="unknown method"):
                method_problem(SMALL_CONFIG, method)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "kkt"])
    def test_every_poisson_method_builds_a_problem_and_a_solver(self, method):
        problem = method_problem(SMALL_CONFIG, method)
        assert problem.A.shape[0] == SMALL_CONFIG.grid_n ** 3
        assert method_solver(SMALL_CONFIG, method, problem).n == problem.A.shape[0]

    def test_kkt_problem_and_solver(self):
        problem = kkt_problem(SMALL_CONFIG)
        solver = kkt_solver(SMALL_CONFIG, problem)
        assert isinstance(solver, GMRESSolver)
        assert solver.criterion.rtol == 1e-6
        result = solver.solve(problem.b)
        assert result.converged
