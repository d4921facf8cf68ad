"""Two-channel timeline tests: overlapped drains, dirty writes, fallback."""

import json

import pytest

from repro.checkpoint import (
    DELTA_COMPRESSOR,
    CheckpointPipeline,
    deserialize_checkpoint,
)
from repro.cluster.machine import ClusterModel
from repro.compression.base import CompressedBlob
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.engine.events import (
    CheckpointDiscardedEvent,
    CheckpointTakenEvent,
    DrainCompletedEvent,
    DrainStartedEvent,
    RecoveryEvent,
)
from repro.solvers import CGSolver, JacobiSolver


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)

ASYNC = Scenario(write_mode="async")


@pytest.fixture(scope="module")
def async_setup(poisson_small):
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)
    return poisson_small, solver, baseline, cluster, scale, iteration_seconds


def _engine(async_setup, scheme, **kwargs):
    problem, solver, baseline, cluster, scale, iteration_seconds = async_setup
    defaults = dict(
        cluster=cluster,
        scale=scale,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=29,
    )
    defaults.update(kwargs)
    return FaultToleranceEngine(solver, problem.b, scheme, **defaults)


def _scripted(*times, write_mode="async"):
    return Scenario(
        failure_model="scripted",
        failure_params=(("times", tuple(times)),),
        write_mode=write_mode,
    )


class TestScenarioWriteMode:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown write mode"):
            Scenario(write_mode="overlapped")

    def test_async_is_not_the_paper_regime(self):
        assert not ASYNC.is_paper_regime
        assert Scenario().write_mode == "blocking"
        assert Scenario().is_paper_regime


class TestOverheadReduction:
    @pytest.mark.parametrize(
        "scheme_factory, interval",
        [
            (CheckpointingScheme.traditional, 300.0),
            (lambda: CheckpointingScheme.lossy(1e-4), 150.0),
        ],
        ids=["traditional", "lossy"],
    )
    def test_async_strictly_cheaper_failure_free(
        self, async_setup, scheme_factory, interval
    ):
        """With checkpoint cost a nontrivial fraction of the interval, the
        overlapped timeline yields strictly lower wall-clock overhead."""
        reports = {}
        for mode in ("blocking", "async"):
            reports[mode] = _engine(
                async_setup,
                scheme_factory(),
                mtti_seconds=None,
                checkpoint_interval_seconds=interval,
                scenario=Scenario(write_mode=mode),
            ).run()
        blocking, asynchronous = reports["blocking"], reports["async"]
        assert blocking.converged and asynchronous.converged
        # The blocking write is a large fraction of the interval here.
        assert blocking.mean_checkpoint_seconds > 0.2 * interval
        assert (
            asynchronous.fault_tolerance_overhead
            < blocking.fault_tolerance_overhead
        )
        # The drain moved to the I/O channel instead of vanishing.
        assert asynchronous.io_drain_seconds > 0.0
        assert asynchronous.info["write_mode"] == "async"

    def test_async_cheaper_under_poisson_failures(self, async_setup):
        reports = {}
        for mode in ("blocking", "async"):
            reports[mode] = _engine(
                async_setup,
                CheckpointingScheme.traditional(),
                mtti_seconds=1500.0,
                checkpoint_interval_seconds=300.0,
                scenario=Scenario(write_mode=mode),
            ).run()
        assert reports["blocking"].num_failures > 0
        assert (
            reports["async"].fault_tolerance_overhead
            < reports["blocking"].fault_tolerance_overhead
        )

    def test_blocking_reports_carry_no_async_keys(self, async_setup):
        report = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=500.0,
            checkpoint_interval_seconds=150.0,
        ).run()
        assert report.io_drain_seconds == 0.0
        for key in ("write_mode", "io_drain_seconds", "num_dirty_checkpoints"):
            assert key not in report.info


class TestDrainSemantics:
    def test_failure_free_run_completes_every_drain(self, async_setup):
        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=300.0,
            scenario=ASYNC,
            record_events=True,
        )
        report = engine.run()
        started = engine.events.of_type(DrainStartedEvent)
        completed = engine.events.of_type(DrainCompletedEvent)
        taken = engine.events.of_type(CheckpointTakenEvent)
        assert report.num_checkpoints == len(started) == len(completed) == len(taken)
        assert report.info["num_dirty_checkpoints"] == 0
        # Inline capture is much cheaper than the blocking write would be.
        assert report.mean_checkpoint_seconds < report.info["mean_drain_seconds"]

    def test_drains_serialize_on_the_io_channel(self, async_setup):
        # Interval far shorter than one drain: captures outpace the channel.
        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=100.0,
            scenario=ASYNC,
            record_events=True,
        )
        engine.run()
        started = engine.events.of_type(DrainStartedEvent)
        assert len(started) >= 3
        for earlier, later in zip(started, started[1:]):
            assert later.drain_start >= earlier.drain_start + earlier.seconds - 1e-9
        # At least one drain had to queue behind the one before it.
        assert any(e.drain_start > e.time + 1e-9 for e in started)

    def test_mid_drain_failure_falls_back_to_previous_completed(self, async_setup):
        """A failure while checkpoint k drains recovers from checkpoint k-1."""
        # Probe run: find the drain intervals without failures.
        probe = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=300.0,
            scenario=ASYNC,
            record_events=True,
        )
        probe.run()
        drains = probe.events.of_type(DrainStartedEvent)
        completions = {e.checkpoint_id: e.time for e in probe.events.of_type(DrainCompletedEvent)}
        assert len(drains) >= 2
        first, second = drains[0], drains[1]
        # Land the failure squarely inside the second drain, after the first
        # completed.
        failure_time = second.drain_start + 0.5 * second.seconds
        assert completions[first.checkpoint_id] < failure_time

        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=300.0,
            scenario=_scripted(failure_time),
            record_events=True,
        )
        report = engine.run()
        assert report.converged
        assert report.info["num_dirty_checkpoints"] == 1
        discarded = engine.events.of_type(CheckpointDiscardedEvent)
        assert [e.iteration for e in discarded] == [second.iteration]
        (recovery,) = engine.events.of_type(RecoveryEvent)
        assert not recovery.from_scratch
        assert recovery.from_iteration == first.iteration

    def test_failure_before_any_drain_completes_restarts_from_scratch(
        self, async_setup
    ):
        probe = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=300.0,
            scenario=ASYNC,
            record_events=True,
        )
        probe.run()
        first = probe.events.of_type(DrainStartedEvent)[0]
        failure_time = first.drain_start + 0.5 * first.seconds
        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=3600.0,
            checkpoint_interval_seconds=300.0,
            scenario=_scripted(failure_time),
            record_events=True,
        )
        report = engine.run()
        assert report.converged
        recoveries = engine.events.of_type(RecoveryEvent)
        assert recoveries[0].from_scratch
        assert report.num_restarts_from_scratch == 0  # exact scheme: inline

    def test_async_runs_are_deterministic(self, async_setup):
        kwargs = dict(
            mtti_seconds=400.0,
            checkpoint_interval_seconds=150.0,
            scenario=Scenario(write_mode="async", recovery_levels="fti"),
            seed=23,
        )
        first = _engine(async_setup, CheckpointingScheme.lossy(1e-4), **kwargs).run()
        again = _engine(async_setup, CheckpointingScheme.lossy(1e-4), **kwargs).run()
        assert _json(first) == _json(again)
        assert first.num_failures > 0

    def test_async_multilevel_prices_level_of_pending_queue(self, async_setup):
        """Committed levels follow the FTI cycle even with queued drains."""
        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=150.0,
            scenario=Scenario(write_mode="async", recovery_levels="fti"),
            record_events=True,
        )
        engine.run()
        taken = engine.events.of_type(CheckpointTakenEvent)
        cycle = engine._store.policy.cycle
        assert len(taken) > len(cycle)
        for index, event in enumerate(taken):
            assert event.level == int(cycle[index % len(cycle)])


@pytest.fixture(scope="module")
def cg_lossy_setup(poisson_small):
    """CG under a lossy bound: restored iterates repeat nearly the same state,
    so successive payloads are near-identical — where a delta writer, if one
    were left, would ship deltas and chain recoveries."""
    solver = CGSolver(poisson_small.A, rtol=1e-8, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    iteration_seconds = cluster.calibrated_iteration_time("cg", baseline.iterations)
    return (
        poisson_small, solver, baseline, cluster, paper_scale(2048), iteration_seconds
    )


class TestFullPayloads:
    """Async checkpoints ship one self-contained payload each."""

    def test_async_run_commits_no_delta_entry(self, cg_lossy_setup, monkeypatch):
        committed = []
        commit = CheckpointPipeline.commit

        def recording_commit(pipeline, snapshot):
            committed.append(snapshot)
            return commit(pipeline, snapshot)

        monkeypatch.setattr(CheckpointPipeline, "commit", recording_commit)
        _engine(
            cg_lossy_setup,
            CheckpointingScheme.lossy(1e-4),
            mtti_seconds=None,
            checkpoint_interval_seconds=120.0,
            scenario=ASYNC,
            seed=2018,
        ).run()
        assert committed
        for snapshot in committed:
            entries = deserialize_checkpoint(snapshot.payload).entries
            blobs = [e for e in entries.values() if isinstance(e, CompressedBlob)]
            assert blobs
            assert all(blob.compressor != DELTA_COMPRESSOR for blob in blobs)

    def test_each_recovery_reads_its_own_record(self, cg_lossy_setup, monkeypatch):
        """A recovery is priced at its record's model bytes, never a chain."""
        recoveries = []
        price = FaultToleranceEngine._recovery_seconds

        def recording_price(engine, last):
            seconds = price(engine, last)
            recoveries.append((last, seconds))
            return seconds

        monkeypatch.setattr(FaultToleranceEngine, "_recovery_seconds", recording_price)
        scheme = CheckpointingScheme.lossy(1e-4)
        engine = _engine(
            cg_lossy_setup,
            scheme,
            mtti_seconds=300.0,
            checkpoint_interval_seconds=120.0,
            scenario=ASYNC,
            seed=2018,
        )
        engine.run()
        from_records = [(rec, s) for rec, s in recoveries if rec is not None]
        assert len(from_records) > 10
        for record, seconds in from_records:
            assert seconds == engine.cluster.recovery_seconds(
                record.model_uncompressed_bytes,
                record.model_compressed_bytes,
                static_bytes=engine.scale.static_bytes,
                compressed=scheme.uses_compression,
            )


class TestInterference:
    def test_interference_charged_only_while_draining(self, async_setup):
        engine = _engine(
            async_setup,
            CheckpointingScheme.traditional(),
            mtti_seconds=None,
            checkpoint_interval_seconds=300.0,
            scenario=ASYNC,
        )
        report = engine.run()
        interference = report.info["io_interference_seconds"]
        assert interference > 0.0
        # Bounded by the surcharge over the drain-busy windows.
        rate = engine.cluster.async_interference
        assert interference <= rate * report.io_drain_seconds + rate * 10.0
