"""Delta codec: bitwise exactness, damaged frames, and no pipeline use.

The ``delta64`` codec has no writer in the checkpoint pipeline; its
exactness and damage tests stay until the codec modules are deleted.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.checkpoint import (
    CheckpointPayload,
    CheckpointPipeline,
    serialize_checkpoint,
)
from repro.checkpoint.delta import (
    DELTA_COMPRESSOR,
    delta_decode,
    delta_encode,
    is_delta_blob,
)
from repro.compression.codec import CodecFormatError
from repro.core.schemes import CheckpointingScheme
from repro.solvers import JacobiSolver

finite_vectors = arrays(
    np.float64,
    st.shared(st.integers(min_value=2, max_value=128), key="n"),
    elements=st.floats(
        min_value=-1e300, max_value=1e300, allow_nan=False, width=64
    ),
)


class TestDeltaCodec:
    @settings(max_examples=40, deadline=None)
    @given(value=finite_vectors, base=finite_vectors)
    def test_round_trip_bitwise_any_base(self, value, base):
        """Deltas reproduce the value bit-for-bit, even against a far base
        (denormals, sign flips, huge magnitudes ride the escape channel)."""
        blob = delta_encode(value, base, base_id=3)
        assert is_delta_blob(blob)
        assert blob.meta["base_id"] == 3
        restored = delta_decode(blob, base)
        assert restored.tobytes() == np.ascontiguousarray(value).tobytes()

    def test_near_base_deltas_are_small(self, rng):
        base = rng.standard_normal(4096)
        value = base * (1.0 + 1e-12 * rng.standard_normal(4096))
        blob = delta_encode(value, base, base_id=0)
        assert blob.nbytes < value.nbytes / 3
        assert delta_decode(blob, base).tobytes() == value.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            delta_encode(np.ones(4), np.ones(5), base_id=0)
        blob = delta_encode(np.ones(4), np.zeros(4), base_id=0)
        with pytest.raises(ValueError, match="elements"):
            delta_decode(blob, np.zeros(5))

    def test_wrong_compressor_rejected(self):
        blob = delta_encode(np.ones(4), np.zeros(4), base_id=0)
        blob.compressor = "zlib"
        with pytest.raises(ValueError, match="delta64"):
            delta_decode(blob, np.zeros(4))


def _drifting_states(n=256, steps=12, seed=5):
    """A converging-iterate-like sequence: successive states stay close
    (relative drift small enough that bit residuals pack well)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    states = [x.copy()]
    for step in range(1, steps):
        x = x + rng.standard_normal(n) * 10.0 ** (-6.0 - 0.4 * step)
        states.append(x.copy())
    return states


class TestMalformedFrames:
    """A damaged delta frame fails with ``CodecFormatError`` or decodes
    bit-exactly: never another exception type, never different numbers.

    Exhaustive over one frame (two blocks, one partial, twelve escapes):
    every truncation and every single-bit flip.  Truncations and header
    damage are caught by the codec's own validation; a flip inside the
    DEFLATE body is caught by inflate or by zlib's Adler-32.  The frame
    carries no stronger checksum, so "never different numbers" is as strong
    as Adler-32 — which a single flipped bit *can* defeat (it did for 1 of
    41,600 flips of another frame tried while writing this test); a
    per-payload checksum is ROADMAP item 4.
    """

    @pytest.fixture(scope="class")
    def delta(self):
        base, value = _drifting_states(n=1100, steps=2)
        value[::97] = -value[::97]  # sign flips ride the escape channel
        return delta_encode(value, base, base_id=0), base, value.tobytes()

    def test_every_truncation_raises_codec_format_error(self, delta):
        blob, base, _ = delta
        for cut in range(len(blob.payload)):
            damaged = dataclasses.replace(blob, payload=blob.payload[:cut])
            with pytest.raises(CodecFormatError):
                delta_decode(damaged, base)

    def test_every_bit_flip_is_detected_or_decodes_bitwise(self, delta):
        blob, base, expected = delta
        survived = 0
        for bit in range(8 * len(blob.payload)):
            payload = bytearray(blob.payload)
            payload[bit >> 3] ^= 1 << (bit & 7)
            damaged = dataclasses.replace(blob, payload=bytes(payload))
            try:
                restored = delta_decode(damaged, base)
            except CodecFormatError:
                continue
            assert restored.tobytes() == expected, f"bit {bit} changed the numbers"
            survived += 1
        # Only don't-care bits of the zlib header may survive a flip.
        assert survived < 64


class TestPipelineShipsNoDeltas:
    """The codec above stays until its modules go; no pipeline writes it."""

    def test_payloads_carry_no_deltas(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
        )
        states = _drifting_states(steps=4)
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            assert all(m.compressor != DELTA_COMPRESSOR for m in snap.variables)

    def test_restoring_a_delta_entry_raises_and_never_decodes(self, monkeypatch):
        """A hand-built ``delta64`` entry is refused by name: the restore
        path has no delta branch, so no codec function ever runs on it."""
        import repro.checkpoint.delta as delta_module

        base, value = _drifting_states(steps=2)
        payload = serialize_checkpoint(
            CheckpointPayload(
                entries={
                    "iteration": 1,
                    "x": delta_encode(value, base, base_id=0),
                },
                meta={"kind": "dynamic", "pipeline_version": 1, "iteration": 1},
            )
        )

        def never(*args, **kwargs):
            raise AssertionError("a delta entry was decoded")

        for name in ("delta_decode", "decode_frame", "decode_signed"):
            monkeypatch.setattr(delta_module, name, never)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
        )
        pipeline.commit(pipeline.snapshot(base, iteration=0, checkpoint_id=0))
        with pytest.raises(KeyError, match="unknown compressor 'delta64'"):
            pipeline.restore(payload=payload)
