"""Regression tests for the traditional-poisson-async failure explosion.

An early engine-microbenchmark run recorded **2,455 failures** (vs 54 in
blocking mode) for the traditional scheme under the two-channel timeline.
The mechanism was a self-reinforcing cascade:

1. the traditional 80 GB payload drains slower than the checkpoint
   interval, so commits lag captures and failures discard in-flight drains
   — the rollback anchor goes stale and rollback spans grow past the MTTI;
2. interrupted recovery/rollback attempts are billed as whole phases while
   the failure process re-armed from the *stale arrival time*, so the
   injector accumulated a backlog of past-due ("latent") failures;
3. the backlog made every subsequent window — including each retaken
   checkpoint's capture — fail instantly, which pushed the checkpoint
   cadence away (+interval per failure) so no drain ever committed again.

The fixes under test: latent failures strike at the start of the window
that finds them in async mode (the process keeps pace with the billed
clock), an overdue checkpoint is retaken immediately after failure
handling, and captures respect the staging-slot backpressure cap
(``MachineSpec.async_staging_slots``).  Blocking-mode reports are pinned
byte-identical by ``test_equivalence.py`` and must not change.
"""

from dataclasses import replace

import pytest

from repro.cluster.machine import BEBOP_LIKE, ClusterModel, MachineSpec
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.engine.events import (
    CheckpointDeferredEvent,
    DrainStartedEvent,
    FailureHitEvent,
)
from repro.solvers import JacobiSolver

#: Expected failure-count ceiling per engine regime, ~1.5x headroom
#: over the observed post-fix counts (54 / 16 / 16 / 131 / 16 at seed 2018,
#: in the order below).  The pre-fix traditional-poisson-async run consumed
#: 2,455 failures — any regression of the cascade blows straight through
#: these bounds, while the tight headroom also catches slow drift.
#:
#: The one *expected* inflation: traditional-poisson-async sees ~2.4x the
#: blocking failure count (131 vs 54).  That ratio is inherent, not a bug:
#: the traditional 80 GB payload drains for ~157 s — longer than the 120 s
#: cadence — so staging backpressure defers captures and commits are rare.
#: Each failure therefore rolls back a long span and pays a long recovery,
#: stretching the virtual run length several-fold, and a Poisson process at
#: MTTI 300 s scores proportionally more arrivals over that longer exposure.
#: The latent-failure clamp then makes every backlogged arrival strike
#: (instead of silently rotting in the past), which is what keeps the count
#: at MTTI scale rather than the pre-fix thousands.
_FAILURE_CEILINGS = {
    "traditional-poisson": 80,
    "lossy-poisson": 25,
    "lossy-weibull-fti": 25,
    "traditional-poisson-async": 200,
    "lossy-poisson-async": 25,
}

_SERIES = {
    "traditional-poisson": (CheckpointingScheme.traditional, Scenario()),
    "lossy-poisson": (lambda: CheckpointingScheme.lossy(1e-4), Scenario()),
    "lossy-weibull-fti": (
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(failure_model="weibull", recovery_levels="fti"),
    ),
    "traditional-poisson-async": (
        CheckpointingScheme.traditional,
        Scenario(write_mode="async"),
    ),
    "lossy-poisson-async": (
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(write_mode="async"),
    ),
}


@pytest.fixture(scope="module")
def bench_setup(poisson_small):
    """The engine regimes' configuration (paper scale, MTTI 300 s)."""
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)
    return poisson_small, solver, baseline, cluster, scale, iteration_seconds


def _run(bench_setup, scheme, scenario, *, cluster=None, record_events=False):
    problem, solver, baseline, default_cluster, scale, iteration_seconds = bench_setup
    engine = FaultToleranceEngine(
        solver,
        problem.b,
        scheme,
        cluster=cluster or default_cluster,
        scale=scale,
        mtti_seconds=300.0,
        checkpoint_interval_seconds=120.0,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=2018,
        scenario=scenario,
        record_events=record_events,
    )
    return engine, engine.run()


class TestBenchSeriesFailureScale:
    @pytest.mark.parametrize("name", sorted(_SERIES))
    def test_failure_count_stays_at_mtti_scale(self, bench_setup, name):
        scheme_factory, scenario = _SERIES[name]
        _, report = _run(bench_setup, scheme_factory(), scenario)
        assert report.converged, name
        assert report.num_checkpoints > 0, name
        assert 0 < report.num_failures <= _FAILURE_CEILINGS[name], (
            f"{name}: {report.num_failures} failures — the async latent-"
            f"failure cascade may be back (2,455 failures pre-fix)"
        )

    def test_async_inflation_is_bounded(self, bench_setup):
        """The async/blocking failure ratio for the traditional scheme stays
        in the expected band (~2.4x at seed 2018; see _FAILURE_CEILINGS).

        More failures async than blocking is *expected* — the >interval
        drain time inflates the virtual run length — but the ratio blowing
        past ~3x would mean the cascade is creeping back."""
        _, blocking = _run(bench_setup, CheckpointingScheme.traditional(), Scenario())
        _, async_ = _run(
            bench_setup, CheckpointingScheme.traditional(), Scenario(write_mode="async")
        )
        assert async_.num_failures > blocking.num_failures
        assert async_.num_failures < 3 * blocking.num_failures

    def test_async_traditional_commits_checkpoints(self, bench_setup):
        """Pre-fix only 4 drains ever committed in the whole run."""
        _, report = _run(
            bench_setup, CheckpointingScheme.traditional(), Scenario(write_mode="async")
        )
        assert report.num_checkpoints >= 10


class TestLatentFailureClamp:
    def test_async_strike_times_are_monotone(self, bench_setup):
        """Latent failures strike inside the window that finds them, so the
        recorded failure times never run backwards on the async timeline."""
        engine, report = _run(
            bench_setup,
            CheckpointingScheme.traditional(),
            Scenario(write_mode="async"),
            record_events=True,
        )
        assert report.num_failures > 0
        hits = [e.time for e in engine.events.of_type(FailureHitEvent)]
        assert hits == sorted(hits)

    def test_blocking_mode_unchanged(self, bench_setup):
        """The clamp is async-only: blocking runs keep the legacy-pinned
        failure count (byte-identity is covered by test_equivalence.py)."""
        _, report = _run(bench_setup, CheckpointingScheme.traditional(), Scenario())
        assert report.num_failures == 54
        assert report.num_checkpoints == 15


class TestStagingBackpressure:
    def test_validation(self):
        with pytest.raises(ValueError, match="async_staging_slots"):
            MachineSpec(async_staging_slots=0)
        assert BEBOP_LIKE.async_staging_slots == 2

    def test_single_slot_serializes_captures(self, bench_setup):
        """With one staging buffer, a capture only happens when the channel
        is free: every drain starts the moment it is staged, and deferral
        events mark the backpressure episodes."""
        cluster = ClusterModel(
            num_processes=2048, spec=replace(BEBOP_LIKE, async_staging_slots=1)
        )
        engine, report = _run(
            bench_setup,
            CheckpointingScheme.traditional(),
            Scenario(write_mode="async"),
            cluster=cluster,
            record_events=True,
        )
        assert report.converged
        starts = list(engine.events.of_type(DrainStartedEvent))
        assert starts, "no drains were ever staged"
        for event in starts:
            assert event.drain_start == pytest.approx(event.time)
        deferrals = list(engine.events.of_type(CheckpointDeferredEvent))
        assert deferrals, "drain (~157 s) outlasts the interval (120 s): the"
        " single slot must defer at least one capture"
        assert all(d.pending == 1 for d in deferrals)

    def test_default_slots_allow_queueing(self, bench_setup):
        """Double buffering (the default) lets one drain queue behind
        another — the serialization semantics of test_async stay intact."""
        engine, report = _run(
            bench_setup,
            CheckpointingScheme.traditional(),
            Scenario(write_mode="async"),
            record_events=True,
        )
        starts = list(engine.events.of_type(DrainStartedEvent))
        assert any(e.drain_start > e.time + 1e-9 for e in starts)
