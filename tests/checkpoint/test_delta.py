"""Delta codec + incremental pipeline: keyframes, chains, bound preservation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
from repro.checkpoint.delta import (
    DELTA_COMPRESSOR,
    delta_decode,
    delta_encode,
    is_delta_blob,
)
from repro.compression.codec import CodecFormatError
from repro.core.schemes import CheckpointingScheme
from repro.solvers import CGSolver, JacobiSolver

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
    per-payload checksum is ROADMAP item 5.
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


class TestIncrementalPipeline:
    def test_lossless_chain_restores_bitwise_after_n_deltas(self):
        """Every payload of a committed delta chain restores bit-for-bit."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=4,
        )
        states = _drifting_states()
        snaps = []
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            snaps.append(snap)
        shipped = [s.variables[-1].compressor for s in snaps]
        assert DELTA_COMPRESSOR in shipped  # deltas actually won somewhere
        for i, (x, snap) in enumerate(zip(states, snaps)):
            restored = pipeline.restore(payload=snap.payload)
            assert restored.x.tobytes() == x.tobytes(), f"checkpoint {i}"

    def test_keyframe_cadence(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=4,
        )
        states = _drifting_states(steps=9)
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            if i % 4 == 0:
                # Keyframes never reference a base, whatever the history.
                assert snap.base_id is None
            elif i > 0:
                assert snap.base_id == i - 1

    def test_lossy_chain_respects_bound_after_n_deltas(self, poisson_small):
        """Restores along a lossy delta chain honour the pointwise bound with
        zero accumulation (deltas ride the bound-respecting reconstruction)."""
        eb = 1e-4
        solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=50000)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossy(eb),
            solver=solver,
            incremental=True,
            keyframe_interval=4,
        )
        captured = []
        solver.solve(poisson_small.b, callback=lambda s: captured.append(s.x.copy()))
        states = captured[:: max(1, len(captured) // 10)][:10]
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            restored = pipeline.restore(payload=snap.payload)
            assert np.all(
                np.abs(restored.x - x) <= eb * np.abs(x) + 1e-300
            ), f"bound violated at delta-chain position {i}"

    def test_exact_resume_vectors_survive_the_chain(self, poisson_small):
        solver = CGSolver(poisson_small.A, rtol=1e-7, max_iter=1000)
        states = []
        solver.solve(poisson_small.b, callback=lambda s: states.append(s))
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            solver=solver,
            store=MemoryCheckpointStore(),
            incremental=True,
        )
        picks = states[2:8]
        for i, state in enumerate(picks):
            resume = solver.capture_resume_state(state)
            snap = pipeline.snapshot(
                state.x, iteration=state.iteration, resume_state=resume,
                checkpoint_id=i,
            )
            pipeline.commit(snap)
            restored = pipeline.restore(i)
            assert restored.x.tobytes() == state.x.tobytes()
            assert (
                restored.resume_state.vectors["p"].tobytes()
                == resume.vectors["p"].tobytes()
            )

    def test_restore_without_base_raises(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
        )
        states = _drifting_states(steps=3)
        delta_snap = None
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            if snap.base_id is not None:
                delta_snap = snap
        assert delta_snap is not None
        fresh = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
        )
        with pytest.raises(KeyError, match="base checkpoint"):
            fresh.restore(payload=delta_snap.payload)

    def test_uncommitted_snapshot_is_not_a_base(self):
        """Deltas reference the last *committed* payload, not the last taken."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        states = _drifting_states(steps=4)
        first = pipeline.snapshot(states[0], iteration=0, checkpoint_id=1)
        pipeline.commit(first)
        discarded = pipeline.snapshot(states[1], iteration=1, checkpoint_id=2)
        assert discarded.base_id == 1
        # The dirty write never commits; the next snapshot still bases on 1.
        third = pipeline.snapshot(states[2], iteration=2, checkpoint_id=3)
        assert third.base_id == 1
        pipeline.commit(third)
        restored = pipeline.restore(payload=third.payload)
        assert restored.x.tobytes() == states[2].tobytes()

    def test_delta_base_survives_in_place_mutation_of_source(self):
        """The committed base must be frozen even if the caller keeps
        mutating the snapshotted buffer (solvers update x in place)."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        live = np.linspace(1.0, 2.0, 256)
        pipeline.commit(pipeline.snapshot(live, iteration=0, checkpoint_id=1))
        second = live * (1.0 + 1e-12)
        snap = pipeline.snapshot(second, iteration=1, checkpoint_id=2)
        pipeline.commit(snap)
        live *= -3.0  # the solver moves on; the frozen base must not follow
        restored = pipeline.restore(payload=snap.payload)
        assert restored.x.tobytes() == second.tobytes()

    def test_non_incremental_payloads_carry_no_deltas(self):
        pipeline = CheckpointPipeline(
            CheckpointingScheme.lossless(), spec=JacobiSolver.checkpoint_spec
        )
        states = _drifting_states(steps=4)
        for i, x in enumerate(states):
            snap = pipeline.snapshot(x, iteration=i, checkpoint_id=i)
            pipeline.commit(snap)
            assert snap.base_id is None
            assert all(m.compressor != DELTA_COMPRESSOR for m in snap.variables)

    def test_delta_ships_only_when_smaller(self, rng):
        """Uncorrelated successive states fall back to the full payload."""
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(),
            spec=JacobiSolver.checkpoint_spec,
            incremental=True,
            keyframe_interval=100,
        )
        a = rng.standard_normal(256)
        b = rng.standard_normal(256) * 1e17  # nothing in common with a
        pipeline.commit(pipeline.snapshot(a, iteration=0, checkpoint_id=1))
        snap = pipeline.snapshot(b, iteration=1, checkpoint_id=2)
        (x_meas,) = [m for m in snap.variables if m.name == "x"]
        assert x_meas.compressor != DELTA_COMPRESSOR
        restored = pipeline.restore(payload=snap.payload)
        assert restored.x.tobytes() == b.tobytes()
