"""Tests for the fault-tolerant execution runner."""

import numpy as np
import pytest

from repro.cluster.machine import ClusterModel
from repro.engine import FaultToleranceEngine
from repro.engine import run_failure_free
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.solvers import CGSolver, GMRESSolver, JacobiSolver


@pytest.fixture(scope="module")
def runner_setup(poisson_medium):
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    return poisson_medium, cluster, scale


def _make_runner(problem, cluster, scale, solver, scheme, **kwargs):
    baseline = kwargs.pop("baseline", None)
    if baseline is None:
        baseline = run_failure_free(solver, problem.b)
    iteration_seconds = cluster.calibrated_iteration_time(
        kwargs.pop("method", solver.name), baseline.iterations
    )
    defaults = dict(
        cluster=cluster,
        scale=scale,
        mtti_seconds=3600.0,
        estimated_checkpoint_seconds=60.0,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=123,
    )
    defaults.update(kwargs)
    return FaultToleranceEngine(solver, problem.b, scheme, **defaults), baseline


class TestFailureFreeBaseline:
    def test_run_failure_free(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A, rtol=1e-4, max_iter=20000)
        baseline = run_failure_free(solver, poisson_medium.b)
        assert baseline.converged
        assert baseline.iterations > 10
        assert len(baseline.residual_norms) == baseline.iterations + 1


class TestRunnerWithoutFailures:
    def test_no_failures_means_zero_extra_iterations(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        runner, baseline = _make_runner(
            problem, cluster, scale, solver, CheckpointingScheme.lossy(1e-4),
            mtti_seconds=None, checkpoint_interval_seconds=600.0,
        )
        report = runner.run()
        assert report.converged
        assert report.num_failures == 0
        assert report.extra_iterations == 0
        assert report.num_checkpoints > 0
        # Overhead is exactly the checkpointing time when there are no failures.
        assert report.fault_tolerance_overhead == pytest.approx(
            report.checkpoint_seconds, rel=1e-9
        )

    def test_young_interval_derivation(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        runner, _ = _make_runner(
            problem, cluster, scale, solver, CheckpointingScheme.traditional(),
            estimated_checkpoint_seconds=115.0,
        )
        assert runner.checkpoint_interval_seconds == pytest.approx(
            np.sqrt(2 * 3600.0 * 115.0), rel=1e-9
        )

    def test_missing_interval_inputs_rejected(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        with pytest.raises(ValueError):
            FaultToleranceEngine(
                solver, problem.b, CheckpointingScheme.traditional(),
                cluster=cluster, scale=scale, mtti_seconds=3600.0,
            )


class TestRunnerWithFailures:
    def test_exact_scheme_has_no_extra_iterations(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        for seed in (1, 2, 3):
            runner, _ = _make_runner(
                problem, cluster, scale, solver, CheckpointingScheme.traditional(),
                estimated_checkpoint_seconds=115.0, seed=seed,
            )
            report = runner.run()
            assert report.converged
            assert report.extra_iterations == 0
            if report.num_failures:
                assert report.recovery_seconds > 0

    def test_lossy_scheme_jacobi_converges_with_failures(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=50000)
        runner, baseline = _make_runner(
            problem, cluster, scale, solver, CheckpointingScheme.lossy(1e-4),
            estimated_checkpoint_seconds=40.0, seed=5,
        )
        report = runner.run()
        assert report.converged
        # Theorem 2: Jacobi suffers essentially no delay at eb = 1e-4.
        assert report.extra_iterations <= max(3, 0.02 * baseline.iterations)

    def test_lossy_cg_reports_extra_iterations(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = CGSolver(problem.A, rtol=1e-7, max_iter=20000)
        extra_counts = []
        for seed in range(6):
            runner, baseline = _make_runner(
                problem, cluster, scale, solver, CheckpointingScheme.lossy(1e-4),
                estimated_checkpoint_seconds=40.0, seed=seed, method="cg",
            )
            report = runner.run()
            assert report.converged
            if report.num_failures > 0:
                extra_counts.append(report.extra_iterations)
        # At least one failing run must show the restarted-CG delay.
        assert extra_counts, "no failures were injected across seeds"
        assert max(extra_counts) >= 0

    def test_overhead_accounting_consistent(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        runner, baseline = _make_runner(
            problem, cluster, scale, solver, CheckpointingScheme.lossless(),
            estimated_checkpoint_seconds=110.0, seed=9,
        )
        report = runner.run()
        assert report.total_seconds == pytest.approx(
            report.productive_seconds
            + report.fault_tolerance_overhead,
            rel=1e-9,
        )
        assert report.overhead_fraction >= 0.0

    def test_lossy_overhead_lower_than_traditional_on_average(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=50000)
        baseline = run_failure_free(solver, problem.b)

        def mean_overhead(scheme, est):
            values = []
            for seed in range(4):
                runner, _ = _make_runner(
                    problem, cluster, scale, solver, scheme,
                    estimated_checkpoint_seconds=est, seed=seed, baseline=baseline,
                )
                values.append(runner.run().overhead_fraction)
            return float(np.mean(values))

        lossy = mean_overhead(CheckpointingScheme.lossy(1e-4), 40.0)
        traditional = mean_overhead(CheckpointingScheme.traditional(), 115.0)
        assert lossy < traditional

    def test_gmres_lossy_with_failures_converges(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = GMRESSolver(problem.A, rtol=7e-5, max_iter=20000)
        runner, _ = _make_runner(
            problem, cluster, scale, solver,
            CheckpointingScheme.lossy(1e-4, adaptive=True),
            estimated_checkpoint_seconds=30.0, seed=11, method="gmres",
        )
        report = runner.run()
        assert report.converged

    def test_report_metadata(self, runner_setup):
        problem, cluster, scale = runner_setup
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
        runner, _ = _make_runner(
            problem, cluster, scale, solver, CheckpointingScheme.lossy(1e-4),
            estimated_checkpoint_seconds=40.0, seed=2,
        )
        report = runner.run()
        assert report.scheme == "lossy"
        assert report.info["num_processes"] == 2048
        assert report.checkpoint_interval_seconds > 0
        assert report.mean_compression_ratio >= 1.0
        assert len(report.residual_trace) >= report.baseline_iterations
