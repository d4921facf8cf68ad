"""Pluggable store backends: engine pricing, bitwise restores, campaign dedup."""

import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointPipeline,
    CheckpointStore,
    ChunkedStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
)
from repro.checkpoint.multilevel import CheckpointLevel
from repro.checkpoint.store import OBJECT_PROFILE, STORE_PROFILES, StoreProfile
from repro.cluster.machine import ClusterModel
from repro.core.model import young_interval
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.engine.events import CheckpointTakenEvent, RecoveryEvent
from repro.engine.scenario import STORE_BACKENDS
from repro.solvers import JacobiSolver


@pytest.fixture(scope="module")
def backend_setup(poisson_small):
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)
    return poisson_small, solver, baseline, cluster, scale, iteration_seconds


def _run(backend_setup, scenario, seed=11, **kwargs):
    problem, solver, baseline, cluster, scale, iteration_seconds = backend_setup
    defaults = dict(
        cluster=cluster,
        scale=scale,
        mtti_seconds=400.0,
        checkpoint_interval_seconds=150.0,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=seed,
        scenario=scenario,
    )
    defaults.update(kwargs)
    engine = FaultToleranceEngine(
        solver, problem.b, CheckpointingScheme.lossy(1e-4), **defaults
    )
    return engine, engine.run()


def _backend_store(name, tmp_path):
    if name == "memory":
        return MemoryCheckpointStore()
    if name == "disk":
        return FileCheckpointStore(tmp_path / "ckpts")
    return ChunkedStore(SimulatedObjectStore(), chunk_size=4096)


class TestBitwiseRestores:
    @pytest.mark.parametrize("scheme_name", ["traditional", "lossless"])
    def test_restore_identical_across_backends(
        self, poisson_small, tmp_path, scheme_name
    ):
        """The same snapshot restores bitwise-identically from every backend."""
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
        states = []
        solver.solve(poisson_small.b, callback=lambda s: states.append(s), max_iter=9)
        state = states[-1]
        scheme = getattr(CheckpointingScheme, scheme_name)()

        restored = {}
        for name in ("memory", "disk", "chunked"):
            store = _backend_store(name, tmp_path / name)
            pipeline = CheckpointPipeline(scheme, solver=solver, store=store)
            snap = pipeline.snapshot(
                state.x,
                iteration=state.iteration,
                resume_state=solver.capture_resume_state(state),
                residual_norm=state.residual_norm,
                b_norm=1.0,
            )
            pipeline.commit(snap)
            restored[name] = pipeline.restore(snap.checkpoint_id)

        reference = restored["memory"]
        for name in ("disk", "chunked"):
            assert np.array_equal(restored[name].x, reference.x)
            assert restored[name].iteration == reference.iteration
            if reference.resume_state is not None:
                for key, vec in reference.resume_state.vectors.items():
                    assert np.array_equal(restored[name].resume_state.vectors[key], vec)


class TestEngineBackends:
    @pytest.mark.parametrize("backend", ["memory", "disk", "object", "chunked"])
    def test_run_converges_and_reports_backend(self, backend_setup, backend):
        scenario = Scenario(
            failure_model="scripted",
            failure_params=(("times", (200.0, 900.0)),),
            store_backend=backend,
        )
        _, report = _run(backend_setup, scenario)
        assert report.converged
        assert report.num_failures == 2
        assert report.info["store_backend"] == backend
        # Only the chunked backend dedups; the others ship every logical byte.
        assert ("dedup_ratio" in report.info) == (backend == "chunked")

    def test_default_backend_reports_no_store_keys(self, backend_setup):
        scenario = Scenario(
            failure_model="scripted", failure_params=(("times", (200.0,)),)
        )
        _, report = _run(backend_setup, scenario)
        assert "store_backend" not in report.info
        assert "dedup_ratio" not in report.info

    def test_backend_pricing_is_distinct(self, backend_setup):
        """Each profile prices the same write traffic differently."""
        times = {}
        for backend in ("pfs", "memory", "disk", "object"):
            scenario = Scenario(
                failure_model="scripted",
                failure_params=(("times", (200.0,)),),
                store_backend=backend,
            )
            _, report = _run(backend_setup, scenario)
            times[backend] = report.checkpoint_seconds
        assert len(set(times.values())) == 4
        assert times["memory"] < times["disk"] < times["pfs"] < times["object"]

    def test_backend_runs_are_deterministic(self, backend_setup):
        """The same cell on the same backend reproduces its report exactly."""
        scenario_kwargs = dict(
            failure_model="scripted", failure_params=(("times", (200.0,)),)
        )
        _, first = _run(
            backend_setup, Scenario(store_backend="chunked", **scenario_kwargs)
        )
        _, second = _run(
            backend_setup, Scenario(store_backend="chunked", **scenario_kwargs)
        )
        assert first.to_dict() == second.to_dict()

    def test_chunked_backend_reports_dedup(self, backend_setup):
        scenario = Scenario(
            failure_model="scripted",
            failure_params=(("times", (200.0,)),),
            recovery_levels="fti",
            store_backend="chunked",
        )
        _, report = _run(backend_setup, scenario)
        info = report.info
        assert info["store_backend"] == "chunked"
        assert info["unique_bytes"] > 0
        assert info["logical_bytes"] >= info["unique_bytes"]
        # PARTNER-level replicas share the chunk pool with the checkpoints
        # they replicate, so dedup is guaranteed, not incidental.
        assert info["dedup_ratio"] is None or info["dedup_ratio"] > 1.0
        assert info["logical_bytes"] > info["unique_bytes"]

    def test_chunked_partner_replica_follows_its_checkpoint(
        self, backend_setup, monkeypatch
    ):
        """The chunk pool holds exactly the live FTI checkpoints, each PARTNER
        one with its buddy replica, after every commit and every drop."""
        seen = {"partner": 0, "dropped": 0}
        committed = set()

        def check(engine):
            pool, records = engine._dedup, engine._state.records
            committed.update(records)
            assert pool.ids() == sorted(records)
            for checkpoint_id in committed:
                record = records.get(checkpoint_id)
                partner = record is not None and record.level == CheckpointLevel.PARTNER
                key = f"replica/L2/{checkpoint_id}"
                assert pool.has_chunked_blob(key) is partner
                if record is not None:
                    assert pool.read(checkpoint_id) == record.snapshot.payload
                if partner:
                    assert pool.get_chunked_blob(key) == record.snapshot.payload
                    seen["partner"] += 1

        def checked(method, counter=None):
            original = getattr(FaultToleranceEngine, method)

            def wrapper(engine, *args):
                original(engine, *args)
                if counter is not None:
                    seen[counter] += 1
                check(engine)

            monkeypatch.setattr(FaultToleranceEngine, method, wrapper)

        checked("_commit")
        checked("_drop", "dropped")
        scenario = Scenario(
            failure_model="scripted",
            failure_params=(("times", (700.0, 1500.0)),),
            recovery_levels="fti",
            store_backend="chunked",
        )
        _run(backend_setup, scenario)
        assert seen["partner"] and seen["dropped"]

    def test_chunked_backend_cheaper_than_object(self, backend_setup):
        """Dedup prices writes at the unique-bytes fraction of the object store."""
        kwargs = dict(
            failure_model="scripted",
            failure_params=(("times", (200.0,)),),
            recovery_levels="fti",
        )
        _, chunked = _run(backend_setup, Scenario(store_backend="chunked", **kwargs))
        _, plain = _run(backend_setup, Scenario(store_backend="object", **kwargs))
        assert chunked.checkpoint_seconds <= plain.checkpoint_seconds

    def test_async_drain_priced_through_profile(self, backend_setup):
        kwargs = dict(
            failure_model="scripted",
            failure_params=(("times", (500.0,)),),
            write_mode="async",
        )
        _, memory = _run(backend_setup, Scenario(store_backend="memory", **kwargs))
        _, obj = _run(backend_setup, Scenario(store_backend="object", **kwargs))
        assert memory.info["io_drain_seconds"] < obj.info["io_drain_seconds"]


def _store_classes(cls=CheckpointStore):
    yield cls
    for sub in cls.__subclasses__():
        yield from _store_classes(sub)


class TestPricedBackendsWriteNothing:
    @pytest.mark.parametrize("write_mode", ["blocking", "async"])
    @pytest.mark.parametrize("recovery_levels", ["pfs", "fti"])
    @pytest.mark.parametrize("backend", ["memory", "disk", "object"])
    def test_cell_creates_no_file_and_calls_no_write(
        self, monkeypatch, backend, recovery_levels, write_mode
    ):
        from repro.campaign.execute import execute_cell
        from repro.campaign.spec import RunSpec

        def refuse(*args, **kwargs):
            raise AssertionError("a priced backend performed storage")

        for cls in _store_classes():
            monkeypatch.setattr(cls, "write", refuse)
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        monkeypatch.setattr(tempfile, "mkstemp", refuse)
        result = execute_cell(
            RunSpec(
                kind="ft",
                method="jacobi",
                scheme="lossy",
                recovery_levels=recovery_levels,
                write_mode=write_mode,
                store_backend=backend,
                num_processes=256,
                mtti_seconds=900.0,
                grid_n=10,
            )
        )
        assert result["report"]["num_checkpoints"] > 0
        assert result["report"]["info"]["store_backend"] == backend


class _RecordingProfile(StoreProfile):
    """A profile that remembers the unscaled seconds of every priced op."""

    def __init__(self, base: StoreProfile) -> None:
        super().__init__(**asdict(base))
        object.__setattr__(self, "priced", {"write": [], "read": []})

    def write_seconds(self, nbytes, num_processes=1):
        seconds = super().write_seconds(nbytes, num_processes)
        self.priced["write"].append(seconds)
        return seconds

    def read_seconds(self, nbytes, num_processes=1):
        seconds = super().read_seconds(nbytes, num_processes)
        self.priced["read"].append(seconds)
        return seconds


class TestOneLevelRule:
    """One algebra, one level rule: ``profile seconds x cost multiplier``."""

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_scenario_prices_through_its_backend_profile(self, backend):
        cluster = ClusterModel(num_processes=256)
        priced = Scenario(store_backend=backend).priced_on(cluster)
        expected = OBJECT_PROFILE if backend == "chunked" else STORE_PROFILES[backend]
        assert priced.profile is expected
        assert priced.num_processes == 256 and priced.spec is cluster.spec
        if backend == "pfs":  # the cluster's own file system
            assert priced is cluster

    @pytest.mark.parametrize("backend", ["pfs", "memory", "disk", "object"])
    def test_fti_events_cost_multiplier_times_profile(self, backend_setup, backend):
        """Every FTI write and read the engine charges is exactly the level's
        multiplier times the backend profile's seconds for the same bytes."""
        problem, solver, baseline, cluster, scale, iteration_seconds = backend_setup
        scenario = Scenario(
            failure_model="scripted",
            failure_params=(("times", (700.0,)),),
            recovery_levels="fti",
            store_backend=backend,
        )
        engine = FaultToleranceEngine(
            solver,
            problem.b,
            CheckpointingScheme.traditional(),  # no compression stage to add
            cluster=cluster,
            scale=scale,
            mtti_seconds=400.0,
            checkpoint_interval_seconds=150.0,
            iteration_seconds=iteration_seconds,
            baseline=baseline,
            seed=11,
            scenario=scenario,
            record_events=True,
        )
        profile = _RecordingProfile(engine.cluster.profile)
        engine.cluster = replace(engine.cluster, profile=profile)
        engine.run()
        multipliers = engine._policy.cost_multiplier
        taken = [e for e in engine.events if isinstance(e, CheckpointTakenEvent)]
        assert {e.level for e in taken} >= {1, 2}
        for event in taken:
            m = multipliers[CheckpointLevel(event.level)]
            assert any(event.seconds == base * m for base in profile.priced["write"])
        (recovery,) = [e for e in engine.events if isinstance(e, RecoveryEvent)]
        assert recovery.level is not None
        rebuild = scale.static_bytes / (
            cluster.spec.static_rebuild_bandwidth_per_core * 2048
        )
        m = multipliers[CheckpointLevel(recovery.level)]
        (base,) = profile.priced["read"]
        assert recovery.seconds == base * m + rebuild


class TestCampaignBackendCell:
    @pytest.mark.parametrize("write_mode", ["blocking", "async"])
    def test_interval_estimate_priced_through_cell_backend(self, write_mode):
        """Regression: the a-priori Young interval (and the reported estimates)
        of a non-pfs cell were priced through the PFS."""
        from repro.campaign.execute import execute_cell
        from repro.campaign.spec import RunSpec

        results = {
            backend: execute_cell(
                RunSpec(
                    kind="ft",
                    method="jacobi",
                    scheme="lossy",
                    write_mode=write_mode,
                    store_backend=backend,
                    num_processes=256,
                    mtti_seconds=3600.0,
                    grid_n=10,
                )
            )
            for backend in ("pfs", "memory")
        }
        memory, pfs = results["memory"], results["pfs"]
        assert memory["estimated_checkpoint_seconds"] < pfs["estimated_checkpoint_seconds"]
        assert memory["estimated_recovery_seconds"] < pfs["estimated_recovery_seconds"]
        assert memory["interval_seconds"] < pfs["interval_seconds"]
        assert memory["report"]["checkpoint_interval_seconds"] == memory["interval_seconds"]
        if write_mode == "blocking":
            assert memory["interval_seconds"] == young_interval(
                memory["estimated_checkpoint_seconds"], 3600.0
            )
        else:
            cluster = Scenario(store_backend="memory").priced_on(
                ClusterModel(num_processes=256)
            )
            stall = memory["estimated_capture_seconds"] + (
                cluster.async_interference * memory["estimated_drain_seconds"]
            )
            assert memory["estimated_drain_seconds"] < pfs["estimated_drain_seconds"]
            assert memory["interval_seconds"] == max(
                young_interval(stall, 3600.0), memory["estimated_drain_seconds"]
            )

    def test_chunked_delta_cell_reports_dedup_ratio(self):
        """Acceptance: async (delta) + chunked campaign cell has dedup_ratio > 1."""
        from repro.campaign.execute import execute_cell
        from repro.campaign.spec import RunSpec

        cell = RunSpec(
            kind="ft",
            method="jacobi",
            scheme="lossy",
            write_mode="async",
            recovery_levels="fti",
            store_backend="chunked",
            num_processes=256,
            mtti_seconds=3600.0,
            grid_n=10,
        )
        result = execute_cell(cell)
        assert result["store_backend"] == "chunked"
        info = result["report"]["info"]
        assert info["store_backend"] == "chunked"
        assert info["dedup_ratio"] is None or info["dedup_ratio"] > 1.0
        assert info["logical_bytes"] > info["unique_bytes"] > 0

    def test_pfs_cell_result_unchanged_shape(self):
        from repro.campaign.execute import execute_cell
        from repro.campaign.spec import RunSpec

        cell = RunSpec(kind="ft", num_processes=256, grid_n=10)
        result = execute_cell(cell)
        assert result["store_backend"] == "pfs"
        assert "store_backend" not in result["report"]["info"]
