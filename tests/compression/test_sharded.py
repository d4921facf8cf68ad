"""Tests for the RSF2 sharded, entropy-gated compression frame.

The load-bearing guarantee is *determinism*: frame bytes must be
bit-identical for any shard-worker count, because checkpoint payloads feed
content-addressed stores and byte-level golden tests.  Thread count is an
execution detail, never a format input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import sharded
from repro.compression.sharded import (
    SHARD_SIZE,
    SHARDED_FORMAT_VERSION,
    ShardedFormatError,
    compress_sections,
    decompress_sections,
    resolve_threads,
)
from repro.core.schemes import CheckpointingScheme


def _sections(seed, sizes):
    rng = np.random.default_rng(seed)
    out = []
    for kind, size in sizes:
        if kind == "zero":
            out.append(np.zeros(size, dtype=np.uint8))
        elif kind == "noise":
            out.append(rng.integers(0, 256, size).astype(np.uint8))
        elif kind == "runs":
            out.append(np.repeat(rng.integers(0, 4, max(1, size // 64)), 64)[:size].astype(np.uint8))
        else:
            raise AssertionError(kind)
    return out


_MIX = [("runs", 9000), ("noise", 8192), ("zero", 5000), ("runs", 100), ("noise", 10)]


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["deflate", "lzma"])
    def test_mixed_sections(self, codec):
        sections = _sections(1, _MIX)
        payload = compress_sections(sections, codec=codec, threads=1)
        out = decompress_sections(payload)
        assert len(out) == len(sections)
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)
            assert got.flags.writeable

    def test_empty_and_tiny_sections(self):
        sections = [np.zeros(0, dtype=np.uint8), np.frombuffer(b"\x07", dtype=np.uint8)]
        out = decompress_sections(compress_sections(sections, threads=1))
        assert out[0].size == 0
        assert bytes(out[1]) == b"\x07"

    def test_accepts_bytes_and_memoryview_sections(self):
        payload = compress_sections([b"abc" * 100, memoryview(b"\x00" * 64)], threads=1)
        out = decompress_sections(payload)
        assert bytes(out[0]) == b"abc" * 100
        assert bytes(out[1]) == b"\x00" * 64

    def test_multi_shard_sections(self, monkeypatch):
        # Shrink the shard size so one section spans many shards, including a
        # ragged tail and an interior all-zero shard.
        monkeypatch.setattr(sharded, "SHARD_SIZE", 1024)
        rng = np.random.default_rng(3)
        section = rng.integers(0, 256, 5000).astype(np.uint8)
        section[1024:2048] = 0  # exactly the second shard
        payload = compress_sections([section], threads=1)
        out = decompress_sections(payload)
        assert np.array_equal(out[0], section)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_sections_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        sections = [
            rng.integers(0, int(rng.integers(1, 256)), int(rng.integers(0, 3000))).astype(np.uint8)
            for _ in range(int(rng.integers(1, 5)))
        ]
        out = decompress_sections(compress_sections(sections, threads=1))
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)


class TestThreadDeterminism:
    def test_payload_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.setattr(sharded, "SHARD_SIZE", 512)  # force real fan-out
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", 0)
        sections = _sections(11, _MIX)
        reference = compress_sections(sections, threads=1)
        for threads in (2, 8):
            assert compress_sections(sections, threads=threads) == reference
        # The environment variable is an equivalent control surface.
        for env_threads in ("1", "2", "8"):
            monkeypatch.setenv("REPRO_COMPRESS_THREADS", env_threads)
            assert compress_sections(sections) == reference

    def test_lzma_payload_identical_across_thread_counts(self, monkeypatch):
        monkeypatch.setattr(sharded, "SHARD_SIZE", 512)
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", 0)
        sections = _sections(12, _MIX)
        reference = compress_sections(sections, codec="lzma", threads=1)
        for threads in (2, 8):
            assert compress_sections(sections, codec="lzma", threads=threads) == reference

    def test_resolve_threads_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "3")
        assert resolve_threads(5) == 5          # explicit argument wins
        assert resolve_threads() == 3           # then the environment
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "not-a-number")
        assert resolve_threads() >= 1           # junk falls back to CPU count
        monkeypatch.delenv("REPRO_COMPRESS_THREADS")
        assert 1 <= resolve_threads() <= 8
        assert resolve_threads(0) == 1          # clamped to at least one


class _PoolBuilt(AssertionError):
    pass


def _no_pool(*args, **kwargs):
    raise _PoolBuilt("a ThreadPoolExecutor was built")


class TestFanOutRule:
    """Threads are used only when the coded bytes can repay a pool."""

    #: Two sections reach the codec; the noise is entropy-gated raw, the
    #: zeros cost nothing.
    _MIX = [("runs", 8192), ("noise", 8192), ("zero", 5000), ("runs", 6400)]
    _CODED_BYTES = 8192 + 6400

    def test_below_threshold_never_builds_a_pool(self, monkeypatch):
        sections = _sections(21, self._MIX)
        reference = compress_sections(sections, threads=1)
        monkeypatch.setattr(sharded, "ThreadPoolExecutor", _no_pool)
        assert self._CODED_BYTES < sharded.FANOUT_MIN_CODED_BYTES
        assert compress_sections(sections, threads=8) == reference
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "8")
        assert compress_sections(sections) == reference

    def test_threshold_counts_coded_bytes_not_input_bytes(self, monkeypatch):
        # Zero and entropy-gated raw shards never reach the codec: the frame
        # is far above the threshold in input bytes, below it in coded bytes.
        sections = _sections(22, self._MIX)
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", self._CODED_BYTES + 1)
        monkeypatch.setattr(sharded, "ThreadPoolExecutor", _no_pool)
        assert sum(section.size for section in sections) > self._CODED_BYTES + 1
        compress_sections(sections, threads=8)
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", self._CODED_BYTES)
        with pytest.raises(_PoolBuilt):
            compress_sections(sections, threads=8)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_payload_identical_on_both_sides_of_the_threshold(self, monkeypatch, side):
        # Patch the constant down rather than allocating hundreds of MiB.
        sections = _sections(23, self._MIX)
        threshold = self._CODED_BYTES + (1 if side == "below" else 0)
        reference = compress_sections(sections, threads=1)
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", threshold)
        for threads in (1, 2, 8):
            assert compress_sections(sections, threads=threads) == reference

    def test_one_thread_never_builds_a_pool_above_the_threshold(self, monkeypatch):
        sections = _sections(24, self._MIX)
        reference = compress_sections(sections, threads=1)
        monkeypatch.setattr(sharded, "FANOUT_MIN_CODED_BYTES", 0)
        monkeypatch.setattr(sharded, "ThreadPoolExecutor", _no_pool)
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "1")
        assert compress_sections(sections) == reference
        with pytest.raises(_PoolBuilt):
            compress_sections(sections, threads=8)


class TestRealThreshold:
    """The fan-out rule at the shipped :data:`FANOUT_MIN_CODED_BYTES`, unpatched."""

    @pytest.mark.parametrize(
        "scheme",
        [
            CheckpointingScheme.lossless(),
            CheckpointingScheme.lossy(1e-4),
            CheckpointingScheme.lossy(1e-4, compressor="zfp"),
        ],
        ids=["lossless", "lossy-sz", "lossy-zfp"],
    )
    def test_two_mib_checkpoint_vector_never_fans_out(self, monkeypatch, scheme):
        # Smooth field plus small noise, the shape of a solver iterate: the
        # lossless frame codes its exponent planes, a quarter of the input,
        # and the lossy frames code less still.
        grid = 1e-3 * np.arange((2 << 20) // 8)
        vector = 3.0 + np.sin(grid) + np.random.default_rng(2018).normal(0.0, 1e-3, grid.size)
        compressor = scheme.compressor()
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "1")
        reference = compressor.compress(vector).payload
        monkeypatch.setattr(sharded, "ThreadPoolExecutor", _no_pool)
        monkeypatch.setenv("REPRO_COMPRESS_THREADS", "8")
        assert compressor.compress(vector).payload == reference

    def test_smallest_fanning_frame_keeps_its_bytes(self, monkeypatch):
        # One section of coded runs, exactly the threshold in size.
        (section,) = _sections(25, [("runs", sharded.FANOUT_MIN_CODED_BYTES)])
        reference = compress_sections([section], threads=1)
        pools = []
        real_pool = sharded.ThreadPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(sharded, "ThreadPoolExecutor", counting_pool)
        assert compress_sections([section], threads=2) == reference
        assert len(pools) == 1


class TestFormatErrors:
    def _frame(self):
        return bytearray(compress_sections(_sections(2, _MIX), threads=1))

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            compress_sections([b"x"], codec="zstd")

    def test_bad_magic(self):
        frame = self._frame()
        frame[:4] = b"JUNK"
        with pytest.raises(ShardedFormatError, match="magic"):
            decompress_sections(bytes(frame))

    def test_bad_version(self):
        frame = self._frame()
        frame[4] = SHARDED_FORMAT_VERSION + 1
        with pytest.raises(ShardedFormatError, match="version"):
            decompress_sections(bytes(frame))

    def test_short_header(self):
        with pytest.raises(ShardedFormatError, match="shorter than its header"):
            decompress_sections(b"RSF2")

    def test_truncated_tables_and_body(self):
        frame = bytes(self._frame())
        # Every prefix must fail loudly, never return wrong data.
        for cut in (17, 40, len(frame) - 7):
            with pytest.raises(ShardedFormatError):
                decompress_sections(frame[:cut])

    def test_trailing_bytes_rejected(self):
        frame = bytes(self._frame())
        with pytest.raises(ShardedFormatError, match="trailing"):
            decompress_sections(frame + b"\x00")

    def test_corrupt_coded_shard_rejected(self):
        sections = [np.repeat(np.arange(32, dtype=np.uint8), 200)]
        frame = bytearray(compress_sections(sections, threads=1))
        frame[-1] ^= 0xFF
        with pytest.raises((ShardedFormatError, Exception)):
            decompress_sections(bytes(frame))


class TestDefaults:
    def test_format_constants(self):
        assert SHARDED_FORMAT_VERSION == 2
        assert SHARD_SIZE == 1 << 20
        # Fan-out starts in the multi-MiB range of coded bytes.
        assert sharded.FANOUT_MIN_CODED_BYTES >= SHARD_SIZE

    def test_zero_section_costs_nothing_but_tables(self):
        quiet = compress_sections([np.zeros(1 << 16, dtype=np.uint8)], threads=1)
        # header + one section entry + one shard entry, no body bytes
        assert len(quiet) == 16 + 12 + 5

    def test_incompressible_section_ships_raw(self):
        rng = np.random.default_rng(9)
        noise = rng.integers(0, 256, 1 << 14).astype(np.uint8)
        payload = compress_sections([noise], threads=1)
        # Raw shard: frame overhead only, no DEFLATE expansion.
        assert len(payload) == 16 + 12 + 5 + noise.size
