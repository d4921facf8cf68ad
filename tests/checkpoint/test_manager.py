"""Protect/Snapshot/restore behaviours on :class:`CheckpointPipeline`.

These are the behaviours the removed ``CheckpointManager`` front-end was
tested for, asserted on the one surviving checkpoint path.
"""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointPipeline,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from repro.compression.base import CompressionRecord
from repro.compression.identity import IdentityCompressor
from repro.compression.lossless import ZlibCompressor
from repro.compression.sz import SZCompressor
from repro.core.schemes import CheckpointingScheme
from repro.solvers.base import CheckpointSpec, ResumeState

#: A CG-like declaration: iterate ``x`` plus one recurrence vector and scalar.
_SPEC = CheckpointSpec(extra_vectors=("p",), scalars=("rho",), exact_resume=True)


@pytest.fixture
def solver_like_state(smooth_vector):
    return {"x": smooth_vector.copy(), "p": smooth_vector * 0.5, "i": 10, "rho": 0.123}


def _pipeline_for(scheme=None, store=None, **kwargs):
    return CheckpointPipeline(
        scheme or CheckpointingScheme.traditional(),
        spec=_SPEC,
        store=store if store is not None else MemoryCheckpointStore(),
        **kwargs,
    )


def _snapshot(pipeline, state, **tag):
    resume = ResumeState(
        iteration=state["i"],
        vectors={"p": state["p"]},
        scalars={"rho": state["rho"]},
    )
    snap = pipeline.snapshot(
        state["x"], iteration=state["i"], resume_state=resume, **tag
    )
    pipeline.commit(snap)
    return snap


class TestSnapshotRestore:
    def test_lossy_snapshot_restores_within_bound(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-4))
        original = solver_like_state["x"].copy()
        snap = _snapshot(pipeline, solver_like_state, phase="mid-run")
        assert snap.compression_ratio > 1.0
        restored = pipeline.restore()
        assert restored.iteration == 10
        rel = np.abs(restored.x - original) / np.abs(original)
        assert np.max(rel) <= 1e-4 * (1 + 1e-9)
        # Algorithm 2: a lossy checkpoint restarts from ``x`` alone.
        assert restored.resume_state is None
        assert restored.tag == {"phase": "mid-run"}

    def test_lossless_snapshot_exact(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        restored = pipeline.restore()
        assert np.array_equal(restored.x, solver_like_state["x"])
        assert np.array_equal(restored.resume_state.vectors["p"], solver_like_state["p"])
        assert restored.resume_state.scalars["rho"] == 0.123

    def test_default_compressor_is_identity(self, solver_like_state):
        snap = _snapshot(_pipeline_for(), solver_like_state)
        assert snap.compression_ratio <= 1.05
        assert {v.compressor for v in snap.vector_measurements} == {"none"}

    def test_restore_specific_checkpoint(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        solver_like_state["i"] = 20
        _snapshot(pipeline, solver_like_state)
        assert pipeline.restore(0).iteration == 10
        assert pipeline.restore().iteration == 20

    def test_restore_without_apply(self, solver_like_state):
        """A restore hands back fresh arrays; live state is never written."""
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        _snapshot(pipeline, solver_like_state)
        live = solver_like_state["x"]
        before = live.copy()
        restored = pipeline.restore()
        restored.x[:] = 0.0
        assert np.array_equal(live, before)
        assert solver_like_state["i"] == 10

    def test_no_dynamic_variables_raises(self):
        """A pipeline needs a declaration of what it protects."""
        with pytest.raises(ValueError):
            CheckpointPipeline(CheckpointingScheme.traditional())

    def test_restore_without_checkpoint_raises(self):
        with pytest.raises(KeyError):
            _pipeline_for().restore()
        with pytest.raises(ValueError):
            CheckpointPipeline(CheckpointingScheme.traditional(), spec=_SPEC).restore()

    def test_keep_last_prunes_old_checkpoints(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossless())
        for i in range(5):
            solver_like_state["i"] = i
            _snapshot(pipeline, solver_like_state)
            pipeline.store.prune(keep_last=2)
        assert pipeline.store.ids() == [3, 4]
        assert pipeline.restore().iteration == 4

    def test_has_checkpoint_and_records(self, solver_like_state):
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-3))
        assert pipeline.store.latest_id() is None
        snap = _snapshot(pipeline, solver_like_state)
        assert pipeline.store.latest_id() == snap.checkpoint_id == 0
        assert snap.ratio_of("x") > 1.0
        assert [v.name for v in snap.vector_measurements] == ["x"]


class _SharedCompressor(IdentityCompressor):
    """Simulates an instance shared with another pipeline: every compress is
    immediately followed by a foreign record landing in ``records``, so
    ``records[-1]`` no longer belongs to the caller's own call."""

    def compress_with_record(self, data):
        blob, record = super().compress_with_record(data)
        self.records.append(CompressionRecord("compress", 1, 1, 999.0))
        return blob, record


class TestTimingAttribution:
    def test_compress_with_record_returns_per_call_record(self, smooth_vector):
        comp = SZCompressor(1e-4)
        blob_a, rec_a = comp.compress_with_record(smooth_vector)
        blob_b, rec_b = comp.compress_with_record(smooth_vector[: 100])
        assert rec_a is not rec_b
        assert rec_a.compressed_bytes == len(blob_a.payload)
        assert rec_b.compressed_bytes == len(blob_b.payload)
        assert rec_a.original_bytes == smooth_vector.nbytes
        assert comp.last_record is rec_b

    def test_snapshot_uses_per_call_record_not_records_tail(self, solver_like_state):
        """Measurements come from each call's own blob, so a compressor shared
        with another writer cannot leak its numbers into this snapshot."""
        shared = _SharedCompressor()
        scheme = CheckpointingScheme(
            "traditional", compressor_factory=lambda: shared, lossy=False
        )
        snap = _snapshot(_pipeline_for(scheme), solver_like_state)
        nbytes = solver_like_state["x"].nbytes
        for measurement in snap.vector_measurements:
            assert measurement.uncompressed_bytes == nbytes
            assert measurement.stored_bytes == nbytes
        assert shared.records[-1].seconds == 999.0

    def test_reset_records_clears_last_record(self, smooth_vector):
        comp = ZlibCompressor()
        comp.compress(smooth_vector)
        assert comp.last_record is not None
        comp.reset_records()
        assert comp.last_record is None


class TestStaticVariables:
    def test_static_snapshot_and_restore(self):
        static_value = np.arange(50, dtype=np.float64)
        pipeline = _pipeline_for(static={"A": static_value})
        snap = pipeline.snapshot_static()
        assert snap is not None and snap.checkpoint_id == -1
        assert np.array_equal(pipeline.restore_static()["A"], static_value)

    def test_static_snapshot_none_when_no_statics(self):
        assert _pipeline_for().snapshot_static() is None


class TestFileBackedManager:
    def test_file_store_integration(self, solver_like_state, tmp_path):
        store = FileCheckpointStore(tmp_path / "ck")
        pipeline = _pipeline_for(CheckpointingScheme.lossy(1e-4), store=store)
        _snapshot(pipeline, solver_like_state)
        # A fresh pipeline over the same directory reads the file back.
        reader = _pipeline_for(
            CheckpointingScheme.lossy(1e-4), store=FileCheckpointStore(tmp_path / "ck")
        )
        restored = reader.restore()
        assert np.allclose(restored.x, solver_like_state["x"], rtol=1e-3)

    def test_invalid_keep_last(self):
        with pytest.raises(ValueError):
            MemoryCheckpointStore().prune(keep_last=-1)
