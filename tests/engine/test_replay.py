"""Trajectory-replay cache: byte-identity, caches, gates and counters.

The replay cache may change *when* solver numerics execute, never *what* the
engine reports: ``FTRunReport.to_dict()`` as sorted-key JSON must be byte-identical with replay
off, replay on against a cold cache, and replay on against a warm cache — the
hypothesis sweep drives that across scheme × failure-model × recovery-levels ×
write-mode (async cells exercise mid-drain failures, ``fti`` cells exercise
multilevel level-loss fallbacks).  The unit tests pin the cache mechanics
(LRU, byte caps, pinning), the ``REPRO_REPLAY`` escape hatch, the engine
kwarg override, the run counters the benchmark artifact reports, and the
checkpoint-payload memo that rides on the same switch.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    ReplaySession,
    SnapshotMemo,
    TrajectoryCache,
    TrajectoryRecording,
    replay_enabled,
    scheme_fingerprint,
    solver_fingerprint,
)
from repro.precond import IncompleteCholeskyPreconditioner, JacobiPreconditioner
from repro.solvers import CGSolver, GMRESSolver, JacobiSolver
import repro.engine.replay as replay_module


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)


def clear_global_cache():
    """Start over with empty process-wide trajectory and snapshot caches."""
    replay_module._GLOBAL_CACHE = None
    replay_module._GLOBAL_SNAPSHOT_MEMO = None


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


def _run(setup, method, scheme_name, scenario, seed, replay, solver=None, baseline=None):
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
        mtti_seconds=300.0,
        checkpoint_interval_seconds=120.0,
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


class TestTrajectoryCache:
    def _recording(self, key, nbytes):
        rec = TrajectoryRecording(
            key=key, limit=100, solver_name="t", start_x=np.zeros(1),
            start_resume=None,
        )
        rec.nbytes = nbytes
        return rec

    def test_lru_entry_cap(self):
        cache = TrajectoryCache(max_entries=2, max_bytes=1 << 30)
        a, b, c = (self._recording(bytes([i]), 10) for i in range(3))
        cache.put(a)
        cache.put(b)
        assert cache.get(a.key) is a  # refresh a: b is now oldest
        cache.put(c)
        assert cache.get(b.key) is None
        assert cache.get(a.key) is a
        assert cache.evictions == 1

    def test_byte_cap(self):
        cache = TrajectoryCache(max_entries=100, max_bytes=25)
        a, b, c = (self._recording(bytes([i]), 10) for i in range(3))
        for rec in (a, b, c):
            cache.put(rec)
        assert cache.get(a.key) is None
        assert cache.total_bytes <= 25

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 12), st.booleans()),
            min_size=1, max_size=25,
        ),
        max_bytes=st.integers(2_000, 20_000),
    )
    def test_materialize_keeps_byte_accounts_exact(self, poisson_small, ops, max_bytes):
        """Catch-up adds only the new snapshot's bytes: the accounts equal a
        full re-measure, and LRU order and evictions equal those of
        re-inserting the recording through ``put``."""

        class Remeasuring(TrajectoryCache):
            def grow(self, rec, nbytes):
                self.put(rec)

        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
        sides = []
        for cache in (TrajectoryCache(3, max_bytes), Remeasuring(3, max_bytes)):
            recs = [
                TrajectoryRecording(
                    key=bytes([start]), limit=12, solver_name=solver.name,
                    start_x=np.full(solver.n, float(start)), start_resume=None,
                )
                for start in range(4)
            ]
            for rec in recs:
                cache.put(rec)
            sides.append((cache, recs, ReplaySession(solver, poisson_small.b, cache=cache)))
        for index, local, pin in ops:
            for cache, recs, replay in sides:
                if pin:
                    cache.pin(recs[index].key)
                replay.materialize(recs[index], local)
                if pin:
                    cache.unpin(recs[index].key)
                live = list(cache._entries.values())
                assert all(rec.nbytes == rec.measure() for rec in live)
                assert cache.total_bytes == sum(rec.measure() for rec in live)
            (fast, _, _), (reference, _, _) = sides
            assert list(fast._entries) == list(reference._entries)
            assert fast.evictions == reference.evictions

    def test_pinned_entries_survive_eviction(self):
        cache = TrajectoryCache(max_entries=1, max_bytes=1 << 30)
        a, b = (self._recording(bytes([i]), 10) for i in range(2))
        cache.put(a)
        cache.pin(a.key)
        cache.put(b)
        assert cache.get(a.key) is a  # pinned: b was evicted instead
        cache.unpin(a.key)
        cache.put(b)
        assert cache.get(a.key) is None


class TestSnapshotMemoAndFingerprints:
    def test_memo_lru_and_byte_cap(self):
        class Snap:
            def __init__(self, n):
                self.payload = b"x" * n

        memo = SnapshotMemo(max_entries=2, max_bytes=1 << 30)
        memo.put(b"a", Snap(1))
        memo.put(b"b", Snap(1))
        assert memo.get(b"a") is not None
        memo.put(b"c", Snap(1))
        assert memo.get(b"b") is None
        assert memo.evictions == 1

        small = SnapshotMemo(max_entries=100, max_bytes=600)
        for key in (b"a", b"b", b"c"):
            small.put(key, Snap(200))
        assert small.get(b"a") is None
        assert small.total_bytes <= 600

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
        """An identity payload is rebuilt, not digested and looked up, in
        either write mode.  Report bytes are the same either way."""
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
        """The taxonomy the extension/catch-up logic relies on (see
        docs/architecture.md): stationary and BiCGSTAB resumes are bitwise,
        CG recomputes its residual on resume and must not be extended."""
        from repro.solvers import BiCGStabSolver

        assert JacobiSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        assert BiCGStabSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        assert not CGSolver(poisson_small.A).checkpoint_spec.bitwise_resume
        spec = GMRESSolver(poisson_small.A).checkpoint_spec
        assert spec.bitwise_resume and spec.restart_boundary_only
