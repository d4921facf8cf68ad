"""Engine regression tests: give-up accounting, overdue checkpoints, retries."""

import pytest

from repro.cluster.failures import FailureInjector, ScriptedFailureModel
from repro.cluster.machine import PAPER_ITERATION_SECONDS, ClusterModel
from repro.engine import FaultToleranceEngine
from repro.engine import run_failure_free
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import Scenario
from repro.engine.events import (
    CheckpointTakenEvent,
    FailureHitEvent,
    GiveUpEvent,
    RecoveryEvent,
    RollbackEvent,
)
from repro.solvers import BiCGStabSolver, CGSolver, GMRESSolver, JacobiSolver
from repro.utils.timing import VirtualClock


@pytest.fixture(scope="module")
def jacobi_setup(poisson_small):
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)
    return poisson_small, solver, baseline, cluster, scale, iteration_seconds


def _engine(jacobi_setup, scheme, **kwargs):
    problem, solver, baseline, cluster, scale, iteration_seconds = jacobi_setup
    defaults = dict(
        cluster=cluster,
        scale=scale,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=17,
    )
    defaults.update(kwargs)
    return FaultToleranceEngine(solver, problem.b, scheme, **defaults)


def _scripted(*times):
    return Scenario(failure_model="scripted", failure_params=(("times", tuple(times)),))


class TestGiveUpAccounting:
    def test_max_restarts_reports_progress_and_flag(self, jacobi_setup):
        _, _, baseline, _, _, iteration_seconds = jacobi_setup
        # One failure mid-run, zero permitted restarts: the run gives up at
        # the interrupted iteration instead of reporting zero progress.
        failure_time = 40.5 * iteration_seconds
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.lossy(1e-4),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=1e9,
            scenario=_scripted(failure_time),
            max_restarts=0,
            record_events=True,
        )
        report = engine.run()
        assert not report.converged
        assert report.info["gave_up"] is True
        assert report.info["give_up_reason"] == "max_restarts"
        # Progress is the iteration the failure interrupted (41), not 0.
        assert report.total_iterations == 41
        assert report.extra_iterations == 41 - baseline.iterations
        assert report.extra_iterations > -baseline.iterations
        give_ups = engine.events.of_type(GiveUpEvent)
        assert len(give_ups) == 1
        assert give_ups[0].iterations_reached == 41

    def test_max_total_iterations_reports_offset_and_nonnegative_extra(
        self, jacobi_setup
    ):
        _, _, baseline, _, _, iteration_seconds = jacobi_setup
        # Coarse lossy restarts + persistent failures: the checkpoint offset
        # marches past the cap, and the fixed accounting reports it (the old
        # code reported total_iterations=0, i.e. extra = -baseline).
        cap = baseline.iterations + 10
        interval = 40.0 * iteration_seconds
        times = tuple(100.0 * iteration_seconds * k for k in range(1, 400))
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.lossy(0.5),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=interval,
            scenario=_scripted(*times),
            max_total_iterations=cap,
        )
        report = engine.run()
        assert report.info["gave_up"] is True
        assert report.info["give_up_reason"] == "max_total_iterations"
        assert report.total_iterations >= cap
        assert report.extra_iterations >= 10

    def test_successful_run_has_no_gave_up_key(self, jacobi_setup):
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.lossy(1e-4),
            mtti_seconds=None,
            checkpoint_interval_seconds=600.0,
        )
        report = engine.run()
        assert report.converged
        assert "gave_up" not in report.info


class TestOverdueCheckpoint:
    def test_due_checkpoint_retaken_immediately_after_rollback(self, jacobi_setup):
        _, _, _, _, _, iteration_seconds = jacobi_setup
        interval = 50.0 * iteration_seconds
        # The checkpoint comes due during iteration 51; land the failure in
        # the same iteration's compute window, before the checkpoint starts.
        failure_time = 50.6 * iteration_seconds
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=interval,
            scenario=_scripted(failure_time),
            record_events=True,
        )
        report = engine.run()
        assert report.converged
        events = list(engine.events)
        (failure_index,) = [
            i for i, e in enumerate(events) if isinstance(e, FailureHitEvent)
        ]
        recovery = events[failure_index + 1]
        rollback = events[failure_index + 2]
        retaken = events[failure_index + 3]
        assert isinstance(recovery, RecoveryEvent)
        assert isinstance(rollback, RollbackEvent)
        # The overdue checkpoint is taken immediately after the rollback —
        # it is not pushed out a full interval.
        assert isinstance(retaken, CheckpointTakenEvent)
        assert retaken.iteration == 51
        assert retaken.time == pytest.approx(rollback.time + retaken.seconds)

    def test_not_yet_due_checkpoint_keeps_full_interval(self, jacobi_setup):
        _, _, _, _, _, iteration_seconds = jacobi_setup
        interval = 50.0 * iteration_seconds
        # Failure at iteration 11, well before the first due time.
        failure_time = 10.5 * iteration_seconds
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=interval,
            scenario=_scripted(failure_time),
            record_events=True,
        )
        report = engine.run()
        assert report.converged
        rollbacks = engine.events.of_type(RollbackEvent)
        assert len(rollbacks) == 1
        first_checkpoint = engine.events.of_type(CheckpointTakenEvent)[0]
        # The first checkpoint starts a full interval after the rollback end.
        assert first_checkpoint.time - first_checkpoint.seconds >= (
            rollbacks[0].time + interval - 1.5 * iteration_seconds
        )


class TestRecoveryRetryBudget:
    def test_exhausted_budget_performs_final_uninterrupted_advance(self, jacobi_setup):
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=600.0,
        )
        # A failure inside every one of the 16 retry windows of a 10 s phase.
        engine._clock = VirtualClock()
        engine._injector = FailureInjector(
            3600.0, model=ScriptedFailureModel([10.0 * k + 5.0 for k in range(16)])
        )
        engine._advance_with_failures(10.0, "recovery")
        # 16 interrupted attempts + one final uninterrupted advance.
        assert engine._injector.count == 16
        assert engine._clock.now == pytest.approx(170.0)
        assert engine._clock.time_in("recovery") == pytest.approx(170.0)

    def test_clean_phase_advances_once(self, jacobi_setup):
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=600.0,
        )
        engine._clock = VirtualClock()
        engine._injector = FailureInjector(None)
        engine._advance_with_failures(12.0, "rollback")
        assert engine._clock.now == pytest.approx(12.0)


class TestEventLog:
    def test_events_off_by_default(self, jacobi_setup):
        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.lossy(1e-4),
            mtti_seconds=None,
            checkpoint_interval_seconds=600.0,
        )
        engine.run()
        assert engine.events is None

    def test_compute_events_cover_all_iterations(self, jacobi_setup):
        from repro.engine.events import ComputeEvent

        engine = _engine(
            jacobi_setup,
            CheckpointingScheme.lossy(1e-4),
            mtti_seconds=None,
            checkpoint_interval_seconds=600.0,
            record_events=True,
        )
        report = engine.run()
        compute = engine.events.of_type(ComputeEvent)
        assert len(compute) == report.total_iterations
        times = [e.time for e in compute]
        assert times == sorted(times)
        checkpoints = engine.events.of_type(CheckpointTakenEvent)
        assert len(checkpoints) == report.num_checkpoints


class TestDefaultIterationSeconds:
    """Without ``iteration_seconds`` the engine prices an iteration at the
    paper's 2,048-process rate of the method it runs."""

    @pytest.mark.parametrize(
        "solver_cls", [JacobiSolver, GMRESSolver, CGSolver, BiCGStabSolver],
        ids=lambda cls: cls.name,
    )
    def test_defaults_to_the_paper_rate_of_the_solver(self, poisson_small, solver_cls):
        solver = solver_cls(poisson_small.A, rtol=1e-4, max_iter=100)
        engine = FaultToleranceEngine(
            solver, poisson_small.b, CheckpointingScheme.traditional(),
            checkpoint_interval_seconds=100.0,
        )
        assert engine.method == solver_cls.name
        assert engine.iteration_seconds == PAPER_ITERATION_SECONDS[solver_cls.name]

    def test_method_without_a_paper_rate_needs_an_explicit_one(self, poisson_small):
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        scheme = CheckpointingScheme.traditional()
        with pytest.raises(KeyError):
            FaultToleranceEngine(
                solver, poisson_small.b, scheme, method="unknown-method",
                checkpoint_interval_seconds=100.0,
            )
        engine = FaultToleranceEngine(
            solver, poisson_small.b, scheme, method="unknown-method",
            iteration_seconds=2.5, checkpoint_interval_seconds=100.0,
        )
        assert engine.iteration_seconds == 2.5
