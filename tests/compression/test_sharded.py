"""Tests for the RSF2 sharded, entropy-gated compression frame.

Round trips, the reader's refusal of every frame its writer never
produces, and the frame's size accounting.  The written bytes themselves
are pinned in ``test_frozen_v2_payloads.py``.
"""

import struct

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


def _crafted(shard_size, section_table, shard_table, body=b""):
    """A frame with a hand-written header and tables (DEFLATE codec)."""
    return b"".join(
        [struct.pack("<4sHBBII", b"RSF2", SHARDED_FORMAT_VERSION, 2, 6, shard_size,
                     len(section_table))]
        + [struct.pack("<QI", *entry) for entry in section_table]
        + [struct.pack("<BI", *entry) for entry in shard_table]
        + [body]
    )


def _methods(frame):
    """The (method, stored_len) shard table of a frame, in order."""
    n_sections = struct.unpack_from("<I", frame, 12)[0]
    counts = [struct.unpack_from("<QI", frame, 16 + 12 * i)[1] for i in range(n_sections)]
    pos = 16 + 12 * n_sections
    return [struct.unpack_from("<BI", frame, pos + 5 * i) for i in range(sum(counts))]


class TestRoundTrip:
    def test_mixed_sections(self):
        sections = _sections(1, _MIX)
        payload = compress_sections(sections)
        out = decompress_sections(payload)
        assert len(out) == len(sections)
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)
            assert got.flags.writeable

    def test_no_sections(self):
        frame = compress_sections([])
        assert len(frame) == 16
        assert decompress_sections(frame) == []

    def test_empty_and_tiny_sections(self):
        sections = [np.zeros(0, dtype=np.uint8), np.frombuffer(b"\x07", dtype=np.uint8)]
        out = decompress_sections(compress_sections(sections))
        assert out[0].size == 0
        assert bytes(out[1]) == b"\x07"

    def test_accepts_bytes_and_memoryview_sections(self):
        payload = compress_sections([b"abc" * 100, memoryview(b"\x00" * 64)])
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
        payload = compress_sections([section])
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
        out = decompress_sections(compress_sections(sections))
        for got, want in zip(out, sections):
            assert np.array_equal(got, want)


class TestFormatErrors:
    def _frame(self):
        return bytearray(compress_sections(_sections(2, _MIX)))

    @pytest.mark.parametrize("codec_id", [0, 1, 3, 255])
    def test_codec_other_than_deflate_rejected(self, codec_id):
        # 3 was LZMA, which no writer produces any more.
        frame = self._frame()
        frame[6] = codec_id
        with pytest.raises(ShardedFormatError, match="codec id"):
            decompress_sections(bytes(frame))

    @pytest.mark.parametrize(
        "size",
        [0, SHARD_SIZE // 2, SHARD_SIZE * 2, 256 << 20],
        ids=["0", "half", "double", "256MiB"],
    )
    def test_shard_size_other_than_the_writers_rejected(self, size):
        # At 256 MiB: 33 bytes that declare one 256-MiB section of one
        # all-zero shard, which a reader trusting the header would allocate.
        frame = _crafted(size, [(size, 1)], [(0, 0)])
        assert len(frame) == 33
        with pytest.raises(ShardedFormatError, match="shard size"):
            decompress_sections(frame)

    @pytest.mark.parametrize(
        "orig_len, n_shards",
        [(10, 3), (0, 0), (0, 2), (SHARD_SIZE + 1, 1), (SHARD_SIZE, 2)],
    )
    def test_shard_count_other_than_the_writers_rejected(self, orig_len, n_shards):
        # The writer always writes max(1, ceil(orig_len / SHARD_SIZE)) shards.
        frame = _crafted(SHARD_SIZE, [(orig_len, n_shards)], [(0, 0)] * n_shards)
        with pytest.raises(ShardedFormatError, match=f"declares {n_shards} shards"):
            decompress_sections(frame)

    def test_reader_follows_the_shard_size_at_call_time(self, monkeypatch):
        frame = compress_sections(_sections(4, _MIX))
        monkeypatch.setattr(sharded, "SHARD_SIZE", 1024)
        with pytest.raises(ShardedFormatError, match="shard size"):
            decompress_sections(frame)

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
        frame = bytearray(compress_sections(sections))
        frame[-1] ^= 0xFF
        with pytest.raises((ShardedFormatError, Exception)):
            decompress_sections(bytes(frame))


class TestDefaults:
    def test_format_constants(self):
        assert SHARDED_FORMAT_VERSION == 2
        assert SHARD_SIZE == 1 << 20

    def test_resolve_threads_is_one(self):
        assert resolve_threads() == 1

    def test_header_records_deflate_and_the_level(self):
        frame = compress_sections(_sections(5, _MIX), level=9)
        assert struct.unpack_from("<4sHBBII", frame, 0) == (
            b"RSF2", SHARDED_FORMAT_VERSION, 2, 9, SHARD_SIZE, len(_MIX)
        )

    def test_each_shard_takes_the_cheapest_method(self, monkeypatch):
        monkeypatch.setattr(sharded, "SHARD_SIZE", 4096)
        rng = np.random.default_rng(6)
        section = np.repeat(rng.integers(0, 4, 4 * 4096 // 64), 64).astype(np.uint8)
        section[4096:8192] = 0                                  # shard 1: zero
        section[8192:12288] = rng.integers(0, 256, 4096)        # shard 2: entropy-gated raw
        frame = compress_sections([section, rng.integers(0, 256, 600).astype(np.uint8)])
        methods = [method for method, _ in _methods(frame)]
        # Section 0: coded, zero, raw, coded; section 1 (600 noise bytes,
        # below the entropy gate's size) fails to shrink and ships raw.
        assert methods == [2, 0, 1, 2, 1]
        assert _methods(frame)[-1] == (1, 600)

    def test_zero_section_costs_nothing_but_tables(self):
        quiet = compress_sections([np.zeros(1 << 16, dtype=np.uint8)])
        # header + one section entry + one shard entry, no body bytes
        assert len(quiet) == 16 + 12 + 5

    def test_incompressible_section_ships_raw(self):
        rng = np.random.default_rng(9)
        noise = rng.integers(0, 256, 1 << 14).astype(np.uint8)
        payload = compress_sections([noise])
        # Raw shard: frame overhead only, no DEFLATE expansion.
        assert len(payload) == 16 + 12 + 5 + noise.size
