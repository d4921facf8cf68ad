"""Cross-module integration tests: the full lossy-checkpointing pipeline."""

import numpy as np

from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
from repro.cluster import ClusterModel, FailureInjector
from repro.compression import SZCompressor, make_compressor
from repro.core import (
    CheckpointingScheme,
    max_acceptable_extra_iterations,
    measure_extra_iterations,
    paper_scale,
    run_failure_free,
)
from repro.engine import FaultToleranceEngine
from repro.precond import IncompleteCholeskyPreconditioner
from repro.solvers import CGSolver, GMRESSolver, JacobiSolver
from repro.sparse import poisson_system


class TestSolverPlusCheckpointManager:
    def test_manual_checkpoint_restart_of_pcg(self):
        """Algorithm 1 end-to-end: protect (x, p, rho, i), snapshot mid-run,
        lose the state, restore, and resume to the same solution."""
        problem = poisson_system(10, seed=0)
        solver = CGSolver(
            problem.A,
            preconditioner=IncompleteCholeskyPreconditioner(problem.A),
            rtol=1e-9,
            max_iter=2000,
        )
        full = solver.solve(problem.b)

        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), solver=solver, store=MemoryCheckpointStore()
        )
        checkpoint_at = full.iterations // 2

        def callback(it_state):
            if it_state.iteration == checkpoint_at:
                snapshot = pipeline.snapshot(
                    it_state.x,
                    iteration=it_state.iteration,
                    resume_state=solver.capture_resume_state(it_state),
                )
                pipeline.commit(snapshot)

        solver.solve(problem.b, callback=callback)
        assert len(pipeline.store.ids()) == 1

        # "Failure": nothing of the run survives but the store; restore and
        # resume the same Krylov sequence.
        restored = pipeline.restore()
        assert restored.iteration == checkpoint_at
        assert set(restored.resume_state.vectors) == {"p"}
        assert set(restored.resume_state.scalars) == {"rho"}
        resumed = solver.solve(
            problem.b, x0=restored.x, resume_state=restored.resume_state
        )
        assert resumed.converged
        assert abs((restored.iteration + resumed.iterations) - full.iterations) <= 1
        assert np.allclose(resumed.x, full.x, atol=1e-7)


class TestLossyCheckpointPipeline:
    def test_lossy_restart_respects_bound_and_converges(self):
        problem = poisson_system(12, seed=1)
        solver = GMRESSolver(problem.A, rtol=7e-5, max_iter=5000)
        baseline = run_failure_free(solver, problem.b)
        compressor = SZCompressor(1e-4)
        study = measure_extra_iterations(
            solver, problem.b, compressor, trials=4, seed=2
        )
        assert all(trial.converged for trial in study.trials)
        assert study.mean_extra_fraction < 1.0
        assert baseline.converged

    def test_theorem1_budget_consistent_with_runner(self):
        """The Theorem-1 budget for the measured configuration is far larger
        than the extra iterations the lossy runs actually incur for Jacobi."""
        problem = poisson_system(14, seed=3)
        solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=50000)
        baseline = run_failure_free(solver, problem.b)
        cluster = ClusterModel(num_processes=2048)
        scale = paper_scale(2048)
        iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)

        budget = max_acceptable_extra_iterations(
            traditional_checkpoint_seconds=120.0,
            lossy_checkpoint_seconds=40.0,
            lam=1 / 3600.0,
            iteration_seconds=iteration_seconds,
        )
        report = FaultToleranceEngine(
            solver, problem.b, CheckpointingScheme.lossy(1e-4),
            cluster=cluster, scale=scale, mtti_seconds=3600.0,
            estimated_checkpoint_seconds=40.0, iteration_seconds=iteration_seconds,
            baseline=baseline, seed=4,
        ).run()
        assert report.converged
        if report.num_failures:
            assert report.extra_iterations / report.num_failures <= max(budget, 1)

    def test_registry_compressors_interchangeable_in_scheme(self):
        problem = poisson_system(8, seed=5)
        x = problem.x_true
        for name in ("sz", "zfp"):
            comp = make_compressor(name, error_bound=1e-4)
            recon = comp.decompress(comp.compress(x))
            nonzero = x != 0
            assert np.max(np.abs(recon[nonzero] - x[nonzero]) / np.abs(x[nonzero])) <= 1e-4 * (
                1 + 1e-8
            )


class TestFailureInjectionStatistics:
    def test_failure_count_scales_with_runtime(self):
        """Longer virtual runs see proportionally more failures."""
        counts = []
        for horizon in (3600.0, 14400.0):
            injector = FailureInjector(1800.0, seed=0)
            count = 0
            t = 0.0
            while True:
                nxt = injector.peek()
                if nxt > horizon:
                    break
                injector.consume(nxt)
                count += 1
                t = nxt
            counts.append(count)
        assert counts[1] > counts[0]
