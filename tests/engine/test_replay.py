"""Trajectory-replay cache: byte-identity, caches, gates and counters.

The replay cache may change *when* solver numerics execute, never *what* the
engine reports: ``FTRunReport.to_dict()`` as sorted-key JSON must be byte-identical with replay
off, replay on against a cold cache, and replay on against a warm cache — the
hypothesis sweep drives that across scheme × failure-model × recovery-levels ×
write-mode (async cells exercise mid-drain failures, ``fti`` cells exercise
multilevel level-loss fallbacks).  The unit tests pin the one
:class:`LRUCache` both memos use (entry and byte caps, exact byte accounts,
an eviction of the recording being replayed), that an interrupted phase
leaves no recording, the ``REPRO_REPLAY`` escape hatch, the engine kwarg
override, the run counters the benchmark artifact reports, and the
checkpoint-payload memo that rides on the same switch, keyed by trajectory
position.
"""

import functools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import (
    FaultToleranceEngine,
    Scenario,
    get_global_snapshot_memo,
    run_failure_free,
)
from repro.engine.replay import (
    REPLAY_ENV,
    LRUCache,
    ReplaySession,
    TrajectoryRecording,
    replay_enabled,
    scheme_fingerprint,
    serve_payload,
    solver_fingerprint,
    state_digest,
)
from repro.precond import IncompleteCholeskyPreconditioner, JacobiPreconditioner
from repro.solvers import CGSolver, GMRESSolver, JacobiSolver
from repro.solvers.base import IterationState, SolverInterrupt
from repro.sparse import poisson_system
import repro.engine.replay as replay_module


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)


def clear_global_cache():
    """Start over with empty process-wide trajectory and snapshot caches."""
    replay_module._GLOBAL_CACHE = None
    replay_module._GLOBAL_SNAPSHOT_MEMO = None


def _trajectory_cache(max_entries=256, max_bytes=256 << 20):
    """A private trajectory cache, by default with the global one's bounds."""
    return LRUCache(TrajectoryRecording.measure, max_entries, max_bytes)


SOLVER_FACTORIES = {
    "jacobi": lambda A: JacobiSolver(A, rtol=1e-4, max_iter=100000),
    "cg": lambda A: CGSolver(A, rtol=1e-6, max_iter=100000),
}

SCHEME_FACTORIES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
}


@pytest.fixture(scope="module")
def setup(poisson_small):
    """Problem, cluster, scale and per-method baselines (computed once)."""
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    baselines = {}
    for name, factory in SOLVER_FACTORIES.items():
        solver = factory(poisson_small.A)
        baselines[name] = run_failure_free(solver, poisson_small.b)
    return poisson_small, cluster, scale, baselines


def _run(
    setup, method, scheme_name, scenario, seed, replay, solver=None, baseline=None,
    *, mtti_seconds=300.0, interval=120.0,
):
    """One engine run under the failure-heavy bench configuration."""
    problem, cluster, scale, baselines = setup
    if baseline is None:
        baseline = baselines[method]
    if solver is None:
        solver = SOLVER_FACTORIES[method](problem.A)
    # Without the calibrated per-iteration time the modeled timeline is too
    # fast for any failure to land — the replay paths would go untested.
    iteration_seconds = cluster.calibrated_iteration_time(
        "jacobi", baselines["jacobi"].iterations
    )
    engine = FaultToleranceEngine(
        solver,
        problem.b,
        SCHEME_FACTORIES[scheme_name](),
        cluster=cluster,
        scale=scale,
        mtti_seconds=mtti_seconds,
        checkpoint_interval_seconds=interval,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=seed,
        scenario=scenario,
        replay=replay,
    )
    report = engine.run()
    return report, engine


class TestByteIdentity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        method=st.sampled_from(sorted(SOLVER_FACTORIES)),
        scheme_name=st.sampled_from(sorted(SCHEME_FACTORIES)),
        failure_model=st.sampled_from(["poisson", "weibull", "bursty"]),
        recovery_levels=st.sampled_from(["pfs", "fti"]),
        write_mode=st.sampled_from(["blocking", "async"]),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_reports_identical_off_cold_warm(
        self, setup, method, scheme_name, failure_model,
        recovery_levels, write_mode, seed,
    ):
        scenario = Scenario(
            failure_model=failure_model,
            recovery_levels=recovery_levels,
            write_mode=write_mode,
        )
        clear_global_cache()
        off, _ = _run(setup, method, scheme_name, scenario, seed, replay=False)
        solver = SOLVER_FACTORIES[method](setup[0].A)
        cold, _ = _run(
            setup, method, scheme_name, scenario, seed, replay=True, solver=solver
        )
        warm, _ = _run(
            setup, method, scheme_name, scenario, seed, replay=True, solver=solver
        )
        assert _json(off) == _json(cold) == _json(warm)

    def test_async_mid_drain_failures_replay_identically(self, setup):
        """The heaviest async case: every failure lands mid-drain or deferred."""
        scenario = Scenario(write_mode="async")
        clear_global_cache()
        off, _ = _run(setup, "jacobi", "traditional", scenario, 2018, False)
        solver = SOLVER_FACTORIES["jacobi"](setup[0].A)
        cold, _ = _run(setup, "jacobi", "traditional", scenario, 2018, True, solver)
        warm, eng = _run(setup, "jacobi", "traditional", scenario, 2018, True, solver)
        assert off.num_failures > 0
        assert _json(off) == _json(cold) == _json(warm)
        assert eng.replay_hits > 0
        assert eng.replay_iterations_saved > 0

    def test_fti_level_loss_fallbacks_replay_identically(self, setup):
        scenario = Scenario(failure_model="weibull", recovery_levels="fti")
        clear_global_cache()
        off, _ = _run(setup, "jacobi", "lossy", scenario, 2018, False)
        solver = SOLVER_FACTORIES["jacobi"](setup[0].A)
        cold, _ = _run(setup, "jacobi", "lossy", scenario, 2018, True, solver)
        warm, eng = _run(setup, "jacobi", "lossy", scenario, 2018, True, solver)
        assert _json(off) == _json(cold) == _json(warm)
        assert eng.replay_hits > 0

    def test_cross_scenario_catchup_is_bitwise(self, setup):
        """A recording made under blocking writes serves the async schedule.

        The two scenarios checkpoint at different iterations, so the async
        replay must materialize boundary states the blocking recording never
        captured — via numeric catch-up, which has to be bit-exact.
        """
        blocking = Scenario()
        asynchronous = Scenario(write_mode="async")
        clear_global_cache()
        off, _ = _run(setup, "jacobi", "traditional", asynchronous, 2018, False)
        solver = SOLVER_FACTORIES["jacobi"](setup[0].A)
        _run(setup, "jacobi", "traditional", blocking, 2018, True, solver)
        replayed, eng = _run(
            setup, "jacobi", "traditional", asynchronous, 2018, True, solver
        )
        assert eng.replay_hits > 0
        assert _json(off) == _json(replayed)


#: Solvers whose resume is not bitwise mid-phase: their solve-start phases
#: are recorded densely.
DENSE_FACTORIES = {
    "cg": SOLVER_FACTORIES["cg"],
    "gmres": lambda A: GMRESSolver(A, rtol=1e-6, max_iter=100000, restart=10),
}


def _noop(state):
    pass


class TestRetention:
    @pytest.mark.parametrize("scheme_name", ["traditional", "lossy"])
    @pytest.mark.parametrize("method", sorted(DENSE_FACTORIES))
    def test_second_cadence_reads_every_boundary(self, setup, method, scheme_name):
        """A failure-free run records the solve at one cadence; a
        failure-injected run at another cadence replays it and finds every
        boundary it checkpoints in the recording — no numeric catch-up — and
        reports exactly what a run without replay reports."""
        problem = setup[0]
        solver = DENSE_FACTORIES[method](problem.A)
        baseline = run_failure_free(solver, problem.b)
        clear_global_cache()
        _run(
            setup, method, scheme_name, Scenario(), 2018, True, solver, baseline,
            mtti_seconds=None, interval=120.0,
        )
        replayed, engine = _run(
            setup, method, scheme_name, Scenario(), 2018, True, solver, baseline,
            interval=90.0,
        )
        off, _ = _run(
            setup, method, scheme_name, Scenario(), 2018, False,
            DENSE_FACTORIES[method](problem.A), baseline, interval=90.0,
        )
        assert replayed.num_failures > 0 and replayed.num_checkpoints > 0
        assert engine.replay_hits >= 1
        assert engine._replay.catchup_iterations == 0
        assert _json(replayed) == _json(off)

    @pytest.mark.parametrize("method", sorted(DENSE_FACTORIES))
    def test_only_solve_start_phases_are_dense(self, poisson_small, method):
        solver = DENSE_FACTORIES[method](poisson_small.A)
        replay = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())
        x0 = np.zeros(solver.n)
        result = replay.solve_phase(x0, None, 0, 12, _noop)
        start = replay.cache.get(state_digest(x0, context=replay.context))
        assert sorted(start.snapshots) == list(range(1, 13))
        # Resuming mid-trajectory (here: a later iteration offset) records the
        # end state only, as boundary-only solvers do.
        later = replay.solve_phase(result.x, None, 12, 12, _noop)
        rec = replay.cache.get(state_digest(result.x, context=replay.context))
        assert later.iterations == 12 and sorted(rec.snapshots) == [12]

    def test_jacobi_keeps_boundary_only_snapshots(self, poisson_small):
        """Jacobi resumes bitwise from any snapshot, so its recordings retain
        the boundaries the caller saw and the end state — and are accounted
        exactly as many bytes as those states take."""
        solver = SOLVER_FACTORIES["jacobi"](poisson_small.A)
        replay = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())

        def boundaries(state):
            if state.iteration in (3, 7, 11):
                replay.note_boundary_state(state)

        x0 = np.zeros(solver.n)
        replay.solve_phase(x0, None, 0, 20, boundaries)
        rec = replay.cache.get(state_digest(x0, context=replay.context))
        assert sorted(rec.snapshots) == [3, 7, 11, 20]
        vector = 8 * solver.n
        assert rec.measure() == replay.cache.total_bytes == (
            (vector + 64)  # start_x
            + vector  # final_x
            + 20 * replay_module._STEP_OVERHEAD_BYTES
            + 4 * (vector + 64)  # x of each snapshot
        )

    def test_interrupted_phase_leaves_no_recording(self, poisson_small):
        """A failure ends the phase: nothing is cached, and a rerun of the
        same phase records it again instead of replaying a prefix."""
        solver = SOLVER_FACTORIES["jacobi"](poisson_small.A)
        replay = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())

        def fail_at_5(state):
            if state.iteration == 5:
                raise SolverInterrupt(state.iteration)

        x0 = np.zeros(solver.n)
        with pytest.raises(SolverInterrupt):
            replay.solve_phase(x0, None, 0, 20, fail_at_5)
        assert len(replay.cache) == 0
        replay.solve_phase(x0, None, 0, 20, _noop)
        assert (replay.hits, replay.misses, len(replay.cache)) == (0, 2, 1)


class TestSwitches:
    def test_env_gate(self, monkeypatch):
        for value in ("0", "off", "false", "no", "disabled", " OFF "):
            monkeypatch.setenv(REPLAY_ENV, value)
            assert not replay_enabled()
        for value in ("", "1", "on", "yes"):
            monkeypatch.setenv(REPLAY_ENV, value)
            assert replay_enabled()
        monkeypatch.delenv(REPLAY_ENV)
        assert replay_enabled()

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "off")
        assert replay_enabled(True)
        monkeypatch.delenv(REPLAY_ENV)
        assert not replay_enabled(False)

    def test_disabled_engine_reports_zero_counters(self, setup):
        clear_global_cache()
        _, engine = _run(setup, "jacobi", "traditional", Scenario(), 2018, False)
        assert engine.replay_hits == 0
        assert engine.replay_iterations_saved == 0

    def test_warm_engine_reports_counters(self, setup):
        clear_global_cache()
        solver = SOLVER_FACTORIES["jacobi"](setup[0].A)
        _run(setup, "jacobi", "traditional", Scenario(), 2018, True, solver)
        _, engine = _run(setup, "jacobi", "traditional", Scenario(), 2018, True, solver)
        assert engine.replay_hits >= 1
        assert engine.replay_iterations_saved > 0


class TestLRUCache:
    def test_lru_entry_cap(self):
        cache = LRUCache(len, max_entries=2, max_bytes=1 << 30)
        cache.put(b"a", b"x")
        cache.put(b"b", b"x")
        assert cache.get(b"a") == b"x"  # refresh a: b is now oldest
        cache.put(b"c", b"x")
        assert cache.get(b"b") is None
        assert cache.get(b"a") == b"x"
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)

    def test_byte_cap(self):
        cache = LRUCache(len, max_entries=100, max_bytes=25)
        for key in (b"a", b"b", b"c"):
            cache.put(key, b"x" * 10)
        assert cache.get(b"a") is None
        assert cache.total_bytes == 20 and len(cache) == 2

    def test_grow_reinserts_an_evicted_value(self):
        cache = LRUCache(len, max_entries=1, max_bytes=1 << 30)
        value = [1, 2]
        cache.put(b"a", value)
        cache.grow(b"a", value, 3)
        assert cache.total_bytes == 5
        cache.put(b"b", [])
        assert cache.get(b"a") is None
        cache.grow(b"a", value, 3)  # evicted meanwhile: measured afresh
        assert cache.get(b"a") is value and cache.total_bytes == 2

    @pytest.mark.parametrize("method", ["jacobi", "cg"])
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 12)),
            min_size=1, max_size=25,
        ),
        max_bytes=st.integers(2_000, 20_000),
    )
    def test_materialize_keeps_byte_accounts_exact(
        self, poisson_small, method, ops, max_bytes
    ):
        """Catch-up adds only the new snapshot's bytes: the accounts equal a
        full re-measure, and LRU order and evictions equal those of
        re-inserting the recording through ``put``.

        Jacobi recordings start empty, so every first access catches up.  CG
        recordings are recorded from the solve start, densely: they retain
        the first ``k`` states, ``k`` set by the dense byte bound (the cap is
        scaled so ``k`` runs from 1 to past the 12 recorded steps), plus the
        end state; an access within them catches up nothing, one past them
        re-executes from the phase start."""

        class Remeasuring(LRUCache):
            def grow(self, key, value, nbytes):
                self.put(key, value)

        dense = method == "cg"
        retained = 0
        if dense:
            max_bytes *= 50
            solver = CGSolver(poisson_small.A, rtol=1e-12, max_iter=100000)
            state_bytes = 2 * 8 * solver.n + 64  # x and p
            retained = min(12, max_bytes // replay_module._DENSE_SHARE // state_bytes)
        else:
            solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
        sides = []
        for cls in (LRUCache, Remeasuring):
            cache = cls(TrajectoryRecording.measure, 3, max_bytes)
            replay = ReplaySession(solver, poisson_small.b, cache=cache)
            recs = []
            for start in range(4):
                x0 = np.full(solver.n, float(start))
                if dense:
                    replay.solve_phase(x0, None, 0, 12, _noop)
                    # The newest recording fits the cap, so it is live.
                    rec = cache.get(state_digest(x0, context=replay.context))
                    assert sorted(rec.snapshots) == sorted(
                        set(range(1, retained + 1)) | {12}
                    )
                else:
                    rec = TrajectoryRecording(
                        key=bytes([start]), limit=12, solver_name=solver.name,
                        start_x=x0, start_resume=None,
                    )
                    cache.put(rec.key, rec)
                recs.append(rec)
            sides.append((cache, recs, replay))
        for index, local in ops:
            for cache, recs, replay in sides:
                caught_up = replay.catchup_iterations
                replay.materialize(recs[index], local)
                if dense and local <= retained:
                    assert replay.catchup_iterations == caught_up
                live = list(cache._entries.values())
                assert all(nbytes == rec.measure() for rec, nbytes in live)
                assert cache.total_bytes == sum(rec.measure() for rec, _ in live)
            (fast, _, _), (reference, _, _) = sides
            assert list(fast._entries) == list(reference._entries)
            assert fast.evictions == reference.evictions

    def test_evicting_the_replayed_recording_keeps_reports_identical(
        self, setup, monkeypatch
    ):
        """A trajectory cache whose byte bound is below the one recording it
        holds evicts that recording at the replay's first catch-up, while
        the replay still reads it; later phases record again.  The report is
        the one a run without replay writes."""
        problem = setup[0]
        solver = SOLVER_FACTORIES["jacobi"](problem.A)
        clear_global_cache()
        _run(
            setup, "jacobi", "traditional", Scenario(), 2018, True, solver,
            mtti_seconds=None,
        )
        cache = replay_module.get_global_cache()
        assert len(cache) == 1
        monkeypatch.setattr(cache, "max_bytes", cache.total_bytes - 1)
        replayed, engine = _run(
            setup, "jacobi", "traditional", Scenario(), 2018, True, solver,
            interval=90.0,
        )
        assert engine.replay_hits >= 1 and engine._replay.catchup_iterations > 0
        assert cache.evictions >= 1
        off, _ = _run(setup, "jacobi", "traditional", Scenario(), 2018, False, interval=90.0)
        assert _json(replayed) == _json(off)


class TestSnapshotMemoAndFingerprints:
    def test_global_memos_keep_their_bounds(self):
        clear_global_cache()
        memo = get_global_snapshot_memo()
        trajectories = replay_module.get_global_cache()
        assert (memo.max_entries, memo.max_bytes) == (4096, 128 << 20)
        assert (trajectories.max_entries, trajectories.max_bytes) == (256, 256 << 20)
        memo.put(b"a", SimpleNamespace(payload=b"x" * 200))
        assert memo.total_bytes == 200 + 256

    def test_warm_run_serves_payloads_from_memo(self, setup):
        clear_global_cache()
        solver = SOLVER_FACTORIES["jacobi"](setup[0].A)
        memo = get_global_snapshot_memo()
        _run(setup, "jacobi", "lossless", Scenario(), 2018, True, solver)
        misses = memo.misses
        hits_before = memo.hits
        _run(setup, "jacobi", "lossless", Scenario(), 2018, True, solver)
        assert memo.misses == misses  # nothing recompressed
        assert memo.hits > hits_before

    @pytest.mark.parametrize("write_mode", ["blocking", "async"])
    def test_only_coded_payloads_use_the_memo(self, setup, write_mode):
        """An identity payload is rebuilt, not looked up, in either write
        mode.  Report bytes are the same either way."""
        scenario = Scenario(write_mode=write_mode)
        clear_global_cache()
        memo = get_global_snapshot_memo()
        misses, hits = memo.misses, memo.hits
        report, _ = _run(setup, "jacobi", "traditional", scenario, 2018, True)
        assert report.num_checkpoints > 0
        assert (memo.misses, memo.hits) == (misses, hits)
        off, _ = _run(setup, "jacobi", "traditional", scenario, 2018, False)
        assert _json(report) == _json(off)

    def test_scheme_fingerprint_distinguishes_configurations(self):
        prints = {
            scheme_fingerprint(CheckpointingScheme.traditional()),
            scheme_fingerprint(CheckpointingScheme.lossless()),
            scheme_fingerprint(CheckpointingScheme.lossless(level=9)),
            scheme_fingerprint(CheckpointingScheme.lossy(1e-4)),
            scheme_fingerprint(CheckpointingScheme.lossy(1e-2)),
            scheme_fingerprint(CheckpointingScheme.lossy(1e-4, adaptive=True)),
        }
        assert len(prints) == 6
        # Equal configurations hash equal (the cross-run sharing contract).
        assert scheme_fingerprint(
            CheckpointingScheme.lossy(1e-4)
        ) == scheme_fingerprint(CheckpointingScheme.lossy(1e-4))

    def test_solver_fingerprint_covers_matrix_and_criterion(self, poisson_small):
        a = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        b = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        assert solver_fingerprint(a) == solver_fingerprint(b)
        assert solver_fingerprint(a) != solver_fingerprint(
            JacobiSolver(poisson_small.A, rtol=1e-5, max_iter=100)
        )
        other = poisson_small.A.copy()
        other = other.tolil()
        other[0, 0] = other[0, 0] * 1.5
        assert solver_fingerprint(a) != solver_fingerprint(
            JacobiSolver(other.tocsr(), rtol=1e-4, max_iter=100)
        )

    def test_restart_gmres_fingerprints_differ(self, poisson_small):
        a = GMRESSolver(poisson_small.A, rtol=1e-6, max_iter=100, restart=20)
        b = GMRESSolver(poisson_small.A, rtol=1e-6, max_iter=100, restart=30)
        assert solver_fingerprint(a) != solver_fingerprint(b)


class TestPositionKeyedMemo:
    def test_second_cell_memo_hits_read_no_state(self, setup, monkeypatch):
        """Two lossless CG cells on one problem under different failure
        seeds: the second replays the first's recording, and every
        checkpoint the payload memo answers reads no state — no
        materialization, no digest beyond one phase key per phase.  A
        position checkpointed under two ids is one entry, served with each
        caller's id, and the report is the one a run without replay writes."""
        ids_by_key = {}
        serve = FaultToleranceEngine._snapshot

        def snapshot(engine, it_state, checkpoint_id):
            key = engine._replay.memo_key(it_state, engine._memo_context, engine.b_norm)
            served = serve(engine, it_state, checkpoint_id)
            assert served.checkpoint_id == checkpoint_id
            ids_by_key.setdefault(key, set()).add(checkpoint_id)
            return served

        monkeypatch.setattr(FaultToleranceEngine, "_snapshot", snapshot)
        clear_global_cache()
        _run(setup, "cg", "lossless", Scenario(), 2018, True, interval=60.0)

        counts = {"materialize": 0, "digest": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ReplaySession, "materialize",
            counting("materialize", ReplaySession.materialize),
        )
        monkeypatch.setattr(
            replay_module, "state_digest",
            counting("digest", replay_module.state_digest),
        )
        memo = get_global_snapshot_memo()
        hits = 0
        on_checkpoint = FaultToleranceEngine._on_checkpoint

        def checkpoint(engine, it_state):
            nonlocal hits
            before, read = memo.hits, dict(counts)
            on_checkpoint(engine, it_state)
            if memo.hits > before:
                hits += 1
                assert counts == read

        monkeypatch.setattr(FaultToleranceEngine, "_on_checkpoint", checkpoint)
        report, engine = _run(
            setup, "cg", "lossless", Scenario(), 7, True, interval=60.0
        )
        assert engine.replay_hits >= 1 and hits > 0
        assert counts["digest"] == engine._replay.hits + engine._replay.misses
        assert len(memo) == len(ids_by_key)
        assert any(len(ids) > 1 for ids in ids_by_key.values())
        monkeypatch.undo()
        off, _ = _run(setup, "cg", "lossless", Scenario(), 7, False, interval=60.0)
        assert _json(report) == _json(off)


#: The ``b_norm`` values the differential checkpoints under: with the
#: residual norm of a position they feed the adaptive error bound.
_B_NORMS = (1.0, 1e-3, 1e-7)

MEMO_SCHEMES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
    "adaptive": lambda: CheckpointingScheme.lossy(1e-4, adaptive=True),
}


def _capture(session, solver, into, count):
    """Callback keeping the snapshot inputs and memo keys of ``count`` states."""

    def callback(state):
        if len(into) < count:
            inputs = dict(
                x=state.x,
                iteration=state.iteration,
                residual_norm=state.residual_norm,
                resume_state=solver.capture_resume_state(state),
            )
            keys = {b: session.memo_key(state, b"context", b) for b in _B_NORMS}
            into.append((inputs, keys))

    return callback


#: Iteration offset of the phase each kind of state comes from: a replay
#: after a rollback relabels the recorded positions.
_OFFSETS = {"recorded": 0, "replayed": 0, "shifted": 5}


@functools.lru_cache(maxsize=None)
def _positioned_states(count=4):
    """A CG phase's first ``count`` states as its recording emits them, as a
    replay of the same phase does, and as a replay at a later iteration
    offset does: snapshot inputs plus memo keys."""
    problem = poisson_system(6, seed=3)
    solver = CGSolver(problem.A, rtol=1e-8, max_iter=1000)
    session = ReplaySession(solver, problem.b, cache=_trajectory_cache())
    states = {kind: [] for kind in _OFFSETS}
    for kind, offset in _OFFSETS.items():
        session.solve_phase(
            np.zeros(solver.n), None, offset, None,
            _capture(session, solver, states[kind], count),
        )
    assert session.hits == 2  # every phase after the first is a replay
    return solver, states


#: One checkpoint: ``(position, kind of state, checkpoint id, b_norm,
#: committed?)`` — an uncommitted snapshot is a checkpoint a mid-write
#: failure discarded.
memo_calls = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(sorted(_OFFSETS)),
        st.integers(0, 3),
        st.sampled_from(_B_NORMS),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


class TestSnapshotMemoDifferential:
    def test_record_and_replay_name_a_state_alike(self):
        _, states = _positioned_states()
        for (recorded, keys), (replayed, replay_keys), (shifted, shifted_keys) in zip(
            states["recorded"], states["replayed"], states["shifted"]
        ):
            assert keys == replay_keys and None not in keys.values()
            assert recorded["x"].tobytes() == replayed["x"].tobytes()
            # Same state, another iteration label: a payload stamps it.
            assert shifted["x"].tobytes() == recorded["x"].tobytes()
            assert shifted["iteration"] == recorded["iteration"] + 5
            assert shifted_keys[1.0] != keys[1.0]
        positions = [keys[1.0] for _, keys in states["recorded"]]
        assert len(set(positions)) == len(positions)

    def test_budget_is_part_of_the_position(self, poisson_small):
        """A phase under another iteration budget is another execution — a
        solver may shape its work by the budget, as GMRES truncates its last
        cycle — so the trajectory cache records it again, and one
        phase-local index under two budgets is two positions."""
        solver = GMRESSolver(poisson_small.A, rtol=1e-12, max_iter=1000, restart=10)
        session = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())
        seen = {}
        for budget in (15, 25):
            seen[budget] = []
            session.solve_phase(
                np.zeros(solver.n), None, 0, budget,
                _capture(session, solver, seen[budget], 15),
            )
        assert (session.hits, session.misses) == (0, 2)
        (short, short_keys), (full, full_keys) = seen[15][-1], seen[25][-1]
        assert short["iteration"] == full["iteration"] == 15
        assert short_keys[1.0] != full_keys[1.0]

    @settings(max_examples=40, deadline=None)
    @given(
        scheme_name=st.sampled_from(sorted(MEMO_SCHEMES)),
        histories=st.lists(memo_calls, min_size=2, max_size=3),
    )
    def test_memo_serves_the_bytes_a_fresh_pass_writes(self, scheme_name, histories):
        """Memo-served and fresh payloads are byte-identical over random
        snapshot/commit/discard histories that repeat positions under other
        checkpoint ids, and the memo answers every repeat of a position,
        iteration label and norm whatever was committed or discarded
        before it."""
        solver, states = _positioned_states()
        memo = LRUCache(replay_module._payload_bytes, 4096, 128 << 20)
        seen, repeats = set(), 0
        for history in histories:
            scheme = MEMO_SCHEMES[scheme_name]()
            memoed, reference = (
                CheckpointPipeline(scheme, solver=solver, store=MemoryCheckpointStore())
                for _ in range(2)
            )
            for position, kind, checkpoint_id, b_norm, committed in history:
                call = (position, _OFFSETS[kind], b_norm)
                repeats += call in seen
                seen.add(call)
                inputs, keys = states[kind][position]
                kwargs = dict(inputs, b_norm=b_norm, checkpoint_id=checkpoint_id)
                if not scheme.checkpoint_krylov_state:
                    kwargs["resume_state"] = None
                x = kwargs.pop("x")
                got = serve_payload(
                    memo, keys[b_norm], checkpoint_id,
                    lambda: memoed.snapshot(x, **kwargs),
                )
                want = reference.snapshot(x, **kwargs)
                assert got.payload == want.payload
                assert got.checkpoint_id == want.checkpoint_id == checkpoint_id
                if committed:
                    memoed.commit(got)
                    reference.commit(want)
            for checkpoint_id in reference.store.ids():
                assert memoed.store.read(checkpoint_id) == reference.store.read(
                    checkpoint_id
                )
                restored = memoed.restore(checkpoint_id)
                expected = reference.restore(checkpoint_id)
                assert restored.x.tobytes() == expected.x.tobytes()
        assert memo.hits == repeats

    def test_a_state_the_session_did_not_emit_gets_no_key(self, poisson_small):
        """Only the states a session hands out have positions: a hand-made
        state, a copy of an emitted one and a state from a solve outside the
        session get no key, so the engine never looks them up in the memo."""
        solver = CGSolver(poisson_small.A, rtol=1e-6, max_iter=100)
        session = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())
        keys, strangers = [], []

        def callback(state):
            keys.append(session.memo_key(state, b"context", 1.0))
            copy = IterationState(state.iteration, state.x, state.residual_norm)
            strangers.append(session.memo_key(copy, b"context", 1.0))

        session.solve_phase(np.zeros(solver.n), None, 0, 5, callback)
        assert None not in keys and strangers == [None] * 5
        outside = []
        solver.solve(
            poisson_small.b, max_iter=3,
            callback=lambda s: outside.append(session.memo_key(s, b"c", 1.0)),
        )
        assert outside == [None] * 3

        memo, built = LRUCache(replay_module._payload_bytes, 4096, 128 << 20), []
        pipeline = CheckpointPipeline(CheckpointingScheme.lossless(), solver=solver)
        for checkpoint_id in range(2):
            serve_payload(
                memo, None, checkpoint_id,
                lambda: built.append(None) or pipeline.snapshot(np.ones(solver.n)),
            )
        assert len(built) == 2 and len(memo) == 0
        assert (memo.hits, memo.misses) == (0, 0)

    def test_payload_survives_in_place_mutation_of_source(self, poisson_small):
        """Solvers update ``x`` in place: a memoized payload does not follow
        the buffer it was taken from, a replay of its position is served the
        recorded state, and the mutated buffer — a state the session did not
        emit — is serialized fresh."""
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        session = ReplaySession(solver, poisson_small.b, cache=_trajectory_cache())
        pipeline = CheckpointPipeline(CheckpointingScheme.lossless(), solver=solver)
        memo, served = LRUCache(replay_module._payload_bytes, 4096, 128 << 20), []

        def checkpoint_at_3(state):
            if state.iteration == 3:
                key = session.memo_key(state, b"context", 1.0)
                live = state.x
                served.append((live.copy(), serve_payload(
                    memo, key, len(served), lambda: pipeline.snapshot(live, iteration=3)
                )))
                live *= -3.0  # the solver moves on
                mutated = IterationState(3, live, state.residual_norm)
                assert session.memo_key(mutated, b"context", 1.0) is None

        x0 = np.zeros(solver.n)
        session.solve_phase(x0, None, 0, 5, checkpoint_at_3)
        session.solve_phase(x0, None, 0, 5, checkpoint_at_3)
        assert memo.hits == 1 and session.hits == 1
        (original, first), (_, second) = served
        assert second.checkpoint_id == 1 and second.payload == first.payload
        assert pipeline.restore(payload=second.payload).x.tobytes() == original.tobytes()


#: CG solvers that differ *only* in preconditioner.  On the Poisson matrix
#: the diagonal is constant, so identity and Jacobi even share their iterates
#: up to rounding — the closest two distinct solvers can get.
_PRECONDITIONERS = {
    "identity": lambda A: None,
    "jacobi": JacobiPreconditioner,
    "ic0-0.0": lambda A: IncompleteCholeskyPreconditioner(A, shift=0.0),
    "ic0-0.1": lambda A: IncompleteCholeskyPreconditioner(A, shift=0.1),
}


def _preconditioned_cg(A, name):
    return CGSolver(
        A, rtol=1e-6, max_iter=100000, preconditioner=_PRECONDITIONERS[name](A)
    )


class TestPreconditionerSoundness:
    """Replay and the snapshot memo are process-global and default-on: solvers
    that differ only in preconditioner must never share an entry."""

    def test_fingerprints_are_pairwise_distinct(self, poisson_small):
        prints = {
            name: solver_fingerprint(_preconditioned_cg(poisson_small.A, name))
            for name in _PRECONDITIONERS
        }
        assert len(set(prints.values())) == len(prints)
        for name, digest in prints.items():  # equal configurations hash equal
            assert digest == solver_fingerprint(_preconditioned_cg(poisson_small.A, name))

    @pytest.mark.parametrize(
        "recorded, replayed",
        [
            ("identity", "jacobi"),
            ("jacobi", "identity"),
            ("ic0-0.0", "ic0-0.1"),
            ("ic0-0.1", "ic0-0.0"),
        ],
    )
    def test_no_hits_against_another_preconditioners_recordings(
        self, setup, recorded, replayed
    ):
        problem = setup[0]

        def run(name):
            solver = _preconditioned_cg(problem.A, name)
            baseline = run_failure_free(solver, problem.b)
            return _run(
                setup, "cg", "traditional", Scenario(), 2018, True, solver, baseline
            )

        clear_global_cache()
        cold_report, cold = run(replayed)

        clear_global_cache()
        _, first = run(recorded)
        _, again = run(recorded)
        # The cache is live: the recording solver's own rerun is served ...
        assert again.replay_hits > first.replay_hits
        # ... and the other solver gets exactly what a cold cache gives it:
        # the hits of rolling back twice onto one of its own checkpoints,
        # none against the recordings of the other preconditioner.
        report, warm = run(replayed)
        assert warm.replay_hits == cold.replay_hits
        assert warm.replay_iterations_saved == cold.replay_iterations_saved
        assert _json(report) == _json(cold_report)


class TestSessionInternals:
    def test_different_rhs_split_the_key_space(self, poisson_small):
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100)
        one = ReplaySession(solver, poisson_small.b)
        other = ReplaySession(solver, poisson_small.b * 2.0)
        assert one.context != other.context

    def test_bitwise_resume_declarations(self, poisson_small):
        """The taxonomy the retention/catch-up logic relies on (see
        docs/architecture.md): stationary and BiCGSTAB resumes are bitwise,
        CG recomputes its residual on resume, GMRES resumes bitwise at cycle
        ends only."""
        from repro.solvers import BiCGStabSolver

        assert JacobiSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        assert BiCGStabSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        assert not CGSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        spec = GMRESSolver(poisson_small.A).checkpoint_spec
        assert spec.bitwise_resume and spec.restart_boundary_only
