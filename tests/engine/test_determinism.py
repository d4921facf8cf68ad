"""Property-based determinism tests for the engine's timeline.

The timeline's contract is that a run is a pure function of its inputs:
two engines built from the same configuration and seed must narrate the
*identical* event sequence — same events, same times, same global sequence
numbers.  Hypothesis drives the configuration space (seed, MTTI, cadence,
write mode, failure model) so the guarantee is exercised well beyond the
handful of pinned fixtures.

A second suite drives the async drain queue through whole runs with
scripted drain durations (zero-second drains queued behind long ones
included): drains complete in the order they were staged, and a drain a
failure discarded never completes.

Note that a recorded :class:`~repro.engine.events.EventLog` is *not*
globally timestamp-sorted — async drain completions are recorded at the
next settle point, later than their completion times — but its ``seq``
stamps are strictly increasing: recording order is dispatch order.
"""

import json
from collections import deque
from dataclasses import dataclass
from typing import Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.engine.events import (
    CheckpointDiscardedEvent,
    CheckpointTakenEvent,
    DrainCompletedEvent,
    DrainStartedEvent,
    FailureHitEvent,
)
from repro.solvers import JacobiSolver


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)


@st.composite
def engine_configs(draw):
    return {
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "mtti": draw(st.sampled_from([200.0, 300.0, 900.0])),
        "interval": draw(st.sampled_from([60.0, 120.0])),
        "write_mode": draw(st.sampled_from(["blocking", "async"])),
        "failure_model": draw(st.sampled_from(["poisson", "weibull", "bursty"])),
    }


class TestSameSeedSameTimeline:
    @classmethod
    def setup_class(cls):
        from repro.sparse import poisson_system

        cls.problem = poisson_system(8, seed=42)
        cls.solver = JacobiSolver(cls.problem.A, rtol=1e-4, max_iter=100000)
        cls.baseline = run_failure_free(cls.solver, cls.problem.b)
        cls.cluster = ClusterModel(num_processes=2048)
        cls.scale = paper_scale(2048)
        cls.iteration_seconds = cls.cluster.calibrated_iteration_time(
            "jacobi", cls.baseline.iterations
        )

    def _run(self, config):
        engine = FaultToleranceEngine(
            self.solver,
            self.problem.b,
            CheckpointingScheme.lossy(1e-4),
            cluster=self.cluster,
            scale=self.scale,
            mtti_seconds=config["mtti"],
            checkpoint_interval_seconds=config["interval"],
            iteration_seconds=self.iteration_seconds,
            baseline=self.baseline,
            seed=config["seed"],
            scenario=Scenario(
                write_mode=config["write_mode"],
                failure_model=config["failure_model"],
            ),
            record_events=True,
        )
        report = engine.run()
        return engine, report

    @given(config=engine_configs())
    @settings(max_examples=12, deadline=None)
    def test_same_seed_runs_are_identical(self, config):
        engine_a, report_a = self._run(config)
        engine_b, report_b = self._run(config)
        log_a, log_b = list(engine_a.events), list(engine_b.events)
        assert len(log_a) == len(log_b)
        for event_a, event_b in zip(log_a, log_b):
            # Dataclass equality ignores ``seq`` (compare=False); the seq
            # stamps — and with them every tie-break — must match too.
            assert event_a == event_b
            assert event_a.seq == event_b.seq
        assert engine_a.events_processed == engine_b.events_processed
        assert _json(report_a) == _json(report_b)

    @given(config=engine_configs())
    @settings(max_examples=8, deadline=None)
    def test_seq_stamps_strictly_increase(self, config):
        """Recording order is dispatch order: seq stamps strictly increase
        (the log itself need not be timestamp-sorted — async drains are
        recorded at the settle point, after later compute events)."""
        engine, _ = self._run(config)
        seqs = [event.seq for event in engine.events]
        assert all(seq >= 0 for seq in seqs)
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        assert engine.events_processed > max(seqs)


@dataclass
class _ScriptedDrains(ClusterModel):
    """A cluster whose drains take scripted durations (cycled), so a test can
    queue zero-second drains behind long ones."""

    script: Tuple[float, ...] = (0.0,)
    drains: int = 0

    def drain_seconds(self, compressed_bytes, *, write_cost_multiplier=1.0):
        seconds = self.script[self.drains % len(self.script)]
        self.drains += 1
        return seconds


def _drain_history(events):
    """Replay a recorded log against a model FIFO queue.

    Returns the ``(time, checkpoint_id)`` completions and the ids a failure
    discarded, asserting on the way that every completion is the oldest
    drain still queued and never a discarded one.  A discard recorded right
    after a failure strike (and the drains it settles) is a dirty drain; a
    capture-window discard is recorded before its strike.
    """
    queue = deque()
    iteration_of = {}
    completed, discarded = [], set()
    after_strike = False
    for event in events:
        if isinstance(event, DrainStartedEvent):
            queue.append(event.checkpoint_id)
            iteration_of[event.checkpoint_id] = event.iteration
        elif isinstance(event, DrainCompletedEvent):
            assert event.checkpoint_id not in discarded
            assert queue and queue.popleft() == event.checkpoint_id
            completed.append((event.time, event.checkpoint_id))
        elif isinstance(event, CheckpointDiscardedEvent) and after_strike and queue:
            dropped = queue.popleft()
            assert iteration_of[dropped] == event.iteration
            discarded.add(dropped)
        if isinstance(event, FailureHitEvent):
            after_strike = True
        elif not isinstance(
            event, (DrainCompletedEvent, CheckpointTakenEvent, CheckpointDiscardedEvent)
        ):
            after_strike = False
    assert not queue, "the end of the run settles every drain"
    return completed, discarded


class TestDrainQueue:
    """Drains complete in the order they were staged, ties included, and a
    drain a failure discarded never completes."""

    @classmethod
    def setup_class(cls):
        from repro.sparse import poisson_system

        cls.problem = poisson_system(8, seed=42)
        cls.solver = JacobiSolver(cls.problem.A, rtol=1e-4, max_iter=100000)
        cls.baseline = run_failure_free(cls.solver, cls.problem.b)

    def _run(self, script, *, seed, mtti, interval, scheme):
        cluster = _ScriptedDrains(num_processes=2048, script=tuple(script))
        engine = FaultToleranceEngine(
            self.solver,
            self.problem.b,
            scheme,
            cluster=cluster,
            scale=paper_scale(2048),
            mtti_seconds=mtti,
            checkpoint_interval_seconds=interval,
            iteration_seconds=cluster.calibrated_iteration_time(
                "jacobi", self.baseline.iterations
            ),
            baseline=self.baseline,
            seed=seed,
            scenario=Scenario(write_mode="async"),
            record_events=True,
        )
        report = engine.run()
        return engine, report

    @given(
        script=st.lists(
            st.sampled_from([0.0, 0.0, 5.0, 90.0, 250.0]), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        mtti=st.sampled_from([None, 200.0, 600.0]),
        interval=st.sampled_from([60.0, 120.0]),
        lossy=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_drains_complete_in_staging_order(self, script, seed, mtti, interval, lossy):
        scheme = (
            CheckpointingScheme.lossy(1e-4)
            if lossy
            else CheckpointingScheme.traditional()
        )
        engine, report = self._run(
            script, seed=seed, mtti=mtti, interval=interval, scheme=scheme
        )
        completed, discarded = _drain_history(engine.events)
        times = [time for time, _ in completed]
        ids = [checkpoint_id for _, checkpoint_id in completed]
        assert times == sorted(times)
        assert ids == sorted(ids)
        assert len(discarded) == report.info["num_dirty_checkpoints"]
        assert len(completed) == report.num_checkpoints

    def test_zero_second_drains_tie_behind_a_long_one(self):
        """A zero-second drain staged behind a long one ends at the same
        instant; the queue still completes the older drain first."""
        engine, _ = self._run(
            (250.0, 0.0),
            seed=0,
            mtti=None,
            interval=60.0,
            scheme=CheckpointingScheme.traditional(),
        )
        completed, _ = _drain_history(engine.events)
        times = [time for time, _ in completed]
        assert len(set(times)) < len(times), "no two drains ended together"
        assert [i for _, i in completed] == sorted(i for _, i in completed)
