"""Tests for checkpoint payload serialization."""

import numpy as np
import pytest

from repro.checkpoint.serialization import (
    CheckpointPayload,
    deserialize_checkpoint,
    serialize_checkpoint,
)
from repro.compression.sz import SZCompressor


class TestSerialization:
    def test_roundtrip_mixed_entries(self, smooth_vector):
        blob = SZCompressor(1e-4).compress(smooth_vector)
        payload = CheckpointPayload(
            entries={
                "x": blob,
                "iteration": 42,
                "rho": 3.14,
                "raw": np.arange(10, dtype=np.int32),
            },
            meta={"tag": {"iteration": 42}},
        )
        restored = deserialize_checkpoint(serialize_checkpoint(payload))
        assert restored.entries["iteration"] == 42
        assert restored.entries["rho"] == pytest.approx(3.14)
        assert np.array_equal(restored.entries["raw"], np.arange(10, dtype=np.int32))
        restored_blob = restored.entries["x"]
        assert restored_blob.compressor == "sz"
        recon = SZCompressor(1e-4).decompress(restored_blob)
        assert recon.shape == smooth_vector.shape

    def test_blob_payload_identical(self, smooth_vector):
        blob = SZCompressor(1e-4).compress(smooth_vector)
        payload = CheckpointPayload(entries={"x": blob})
        restored = deserialize_checkpoint(serialize_checkpoint(payload))
        assert restored.entries["x"].payload == blob.payload

    def test_meta_preserved(self):
        payload = CheckpointPayload(entries={"i": 1}, meta={"kind": "dynamic"})
        restored = deserialize_checkpoint(serialize_checkpoint(payload))
        assert restored.meta["kind"] == "dynamic"

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_checkpoint(b"not a checkpoint at all")

    def test_unsupported_entry_type_rejected(self):
        payload = CheckpointPayload(entries={"bad": object()})
        with pytest.raises(TypeError):
            serialize_checkpoint(payload)

    def test_truncated_index_rejected(self):
        raw = serialize_checkpoint(
            CheckpointPayload(entries={"i": 1}, meta={"kind": "dynamic"})
        )
        # Cut inside the JSON index: the declared index length overruns.
        with pytest.raises(ValueError, match="truncated checkpoint payload"):
            deserialize_checkpoint(raw[:20])

    def test_truncated_body_rejected(self):
        raw = serialize_checkpoint(
            CheckpointPayload(entries={"x": np.zeros(100)})
        )
        # Cut inside the entry bodies: the index parses, the body is short.
        with pytest.raises(ValueError, match="truncated checkpoint payload"):
            deserialize_checkpoint(raw[:-100])

    def test_multidimensional_array_entry(self):
        data = np.random.default_rng(0).random((4, 6))
        payload = CheckpointPayload(entries={"grid": data})
        restored = deserialize_checkpoint(serialize_checkpoint(payload))
        assert np.array_equal(restored.entries["grid"], data)
