"""Property-based determinism tests for the event-calendar engine.

The calendar's contract is that a run is a pure function of its inputs:
two engines built from the same configuration and seed must narrate the
*identical* event sequence — same events, same times, same global sequence
numbers (including every ``(time, seq)`` tie-break).  Hypothesis drives the
configuration space (seed, MTTI, cadence, write mode, failure model) so the
guarantee is exercised well beyond the handful of pinned fixtures.

A second suite drives :class:`~repro.engine.calendar.EventCalendar`
directly: whatever mix of times (duplicates included) is posted, events pop
in ``(time, seq)`` order, i.e. simultaneous events resolve in posting
order.

Note that a recorded :class:`~repro.engine.events.EventLog` is *not*
globally timestamp-sorted — async drain completions are recorded at the
next settle point, later than their completion times — but its ``seq``
stamps are strictly increasing: recording order is dispatch order.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.engine.calendar import EventCalendar, EventKind
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


class TestCalendarOrdering:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pops_in_time_seq_order(self, times):
        calendar = EventCalendar()
        posted = [
            calendar.post(time, EventKind.COMPUTE_PHASE_END, payload=index)
            for index, time in enumerate(times)
        ]
        drained = list(calendar.pop_due(math.inf))
        assert len(drained) == len(posted)
        keys = [(event.time, event.seq) for event in drained]
        assert keys == sorted(keys)
        # Ties resolve in posting order: payload index tracks posting.
        for earlier, later in zip(drained, drained[1:]):
            if earlier.time == later.time:
                assert earlier.payload < later.payload

    @given(
        times=st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=2, max_size=40
        ),
        cancel_every=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_cancelled_events_never_surface(self, times, cancel_every):
        calendar = EventCalendar()
        live = []
        for index, time in enumerate(times):
            event = calendar.post(time, EventKind.CHECKPOINT_DUE, payload=index)
            if index % cancel_every == 0:
                event.cancel()
            else:
                live.append(event)
        drained = list(calendar.pop_due(math.inf))
        assert [event.payload for event in drained] == sorted(
            (event.payload for event in live),
            key=lambda payload: (times[payload], payload),
        )
        assert len(calendar) == 0
