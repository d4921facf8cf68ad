"""Tests for the versioned block codec (format v1).

The codec must round-trip *exactly* at the code-stream level (it is a
lossless integer coder) and, composed into the SZ/ZFP compressors, keep the
error-bound guarantees on adversarial shapes: empty, scalar-size, constant,
all-zero, denormal and outlier-heavy arrays, plus codes at the 63-bit
quantizer edge where the zigzag mapping needs the full 64-bit width.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codec import (
    DEFAULT_BLOCK_SIZE,
    FORMAT_VERSION,
    CodecFormatError,
    decode_frame,
    decode_signed,
    encode_frame,
    encode_signed,
)
from repro.compression.encoding import pack_sections
from repro.compression.errorbounds import ErrorBound
from repro.compression.sharded import SHARDED_FORMAT_VERSION
from repro.compression.metrics import max_abs_error, max_pointwise_relative_error
from repro.compression.quantization import _MAX_CODE
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor


def _compress_roundtrip(compressor, data):
    """Compress then decompress: the reconstruction and the blob."""
    blob = compressor.compress(data)
    return compressor.decompress(blob), blob


def _roundtrip(codes, **kwargs):
    codes = np.asarray(codes, dtype=np.int64)
    decoded = decode_signed(encode_signed(codes, **kwargs))
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, codes)
    return decoded


class TestBlockStreamRoundTrip:
    def test_empty(self):
        assert _roundtrip([]).size == 0

    def test_single_code(self):
        _roundtrip([-42])

    def test_constant(self):
        _roundtrip(np.full(3000, -13))

    def test_all_zero_blocks_cost_no_bits(self):
        payload = encode_signed(np.zeros(4 * DEFAULT_BLOCK_SIZE, dtype=np.int64))
        # header + one width byte per block, nothing else
        assert len(payload) == struct.calcsize("<QIIQ") + 4
        _roundtrip(np.zeros(4 * DEFAULT_BLOCK_SIZE, dtype=np.int64))

    def test_block_boundary_sizes(self):
        rng = np.random.default_rng(3)
        for n in (DEFAULT_BLOCK_SIZE - 1, DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE + 1):
            _roundtrip(rng.integers(-100, 100, n))

    def test_63_bit_zigzag_edge(self):
        # +-2**62 is the quantizer's admissible extreme; zigzag maps 2**62 to
        # 2**63, which needs the full 64-bit width.
        edge = int(_MAX_CODE)
        _roundtrip([edge, -edge, edge - 1, -edge + 1, 0])
        _roundtrip([edge], width_cap=64)

    def test_outliers_use_escape_channel(self):
        rng = np.random.default_rng(5)
        codes = rng.integers(-8, 8, 50000).astype(np.int64)
        positions = rng.choice(codes.size, 40, replace=False)
        codes[positions] = rng.integers(2**40, 2**50, 40)
        payload = encode_signed(codes, width_cap=16)
        _, _, _, n_escapes = struct.unpack_from("<QIIQ", payload, 0)
        assert n_escapes == 40
        assert np.array_equal(decode_signed(payload), codes)

    def test_outlier_heavy_beats_global_width(self):
        # One block holding the whole stream with no escape channel packs
        # every element at the outlier's width — what a global-width encoder
        # pays; blockwise widths plus escapes must not.
        rng = np.random.default_rng(7)
        codes = rng.integers(-10, 10, 50000).astype(np.int64)
        codes[rng.choice(codes.size, 50, replace=False)] = 2**40
        global_width = encode_signed(codes, block_size=1 << 16, width_cap=64)
        assert len(global_width) > codes.size * 41 // 8
        blocked = encode_signed(codes)
        assert len(zlib.compress(blocked, 6)) < len(zlib.compress(global_width, 6))

    def test_width_cap_extremes(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(-(2**30), 2**30, 5000).astype(np.int64)
        for cap in (1, 64):
            assert np.array_equal(decode_signed(encode_signed(codes, width_cap=cap)), codes)

    def test_corrupt_stream_header_rejected(self):
        with pytest.raises(CodecFormatError):
            decode_signed(struct.pack("<QIIQ", 5, 0, 32, 0))  # zero block size
        with pytest.raises(CodecFormatError):
            decode_signed(struct.pack("<QIIQ", 5, 1024, 65, 0))  # bad width cap
        with pytest.raises(CodecFormatError):
            decode_signed(struct.pack("<QIIQ", 5, 100, 32, 0))  # not 64-aligned
        with pytest.raises(CodecFormatError):
            # a block width above the cap no writer would have left inline
            decode_signed(struct.pack("<QIIQ", 5, 64, 8, 0) + b"\x09" + bytes(72))

    def test_wrong_length_stream_rejected(self):
        """Every truncation — header included — and any trailing byte is a
        ``CodecFormatError``, never ``struct.error`` or a numpy ``ValueError``."""
        codes = np.arange(-700, 701, dtype=np.int64)
        codes[5] = 2**40  # one escape
        payload = encode_signed(codes, width_cap=16)
        for cut in range(len(payload)):
            with pytest.raises(CodecFormatError):
                decode_signed(payload[:cut])
        with pytest.raises(CodecFormatError):
            decode_signed(payload + b"\x00")

    def test_bit_flips_never_escape_as_another_exception(self):
        """The bare stream has no checksum, so a flipped bit may decode to
        other codes — but it decodes or raises ``CodecFormatError``."""
        codes = np.arange(-100, 101, dtype=np.int64)
        codes[5] = 2**40
        payload = encode_signed(codes, block_size=64, width_cap=16)
        for bit in range(8 * len(payload)):
            damaged = bytearray(payload)
            damaged[bit >> 3] ^= 1 << (bit & 7)
            try:
                decoded = decode_signed(bytes(damaged))
            except CodecFormatError:
                continue
            assert decoded.dtype == np.int64

    def test_corrupt_escape_positions_rejected(self):
        codes = np.zeros(10, dtype=np.int64)
        codes[3] = 2**40  # forces one escape
        payload = bytearray(encode_signed(codes, width_cap=16))
        # overwrite the escape position (last 16 bytes = position + value)
        payload[-16:-8] = np.asarray([999999], dtype=np.uint64).tobytes()
        with pytest.raises(CodecFormatError):
            decode_signed(bytes(payload))

    def test_non_canonical_escape_table_rejected(self):
        codes = np.zeros(64, dtype=np.int64)
        codes[[3, 9]] = 2**40  # two escapes: positions then values, 32 bytes
        codes[10] = 1
        good = encode_signed(codes, block_size=64, width_cap=16)
        positions = slice(len(good) - 32, len(good) - 16)
        # descending, duplicate, and an escape onto a nonzero inline slot
        for table in ([9, 3], [3, 3], [3, 10]):
            payload = bytearray(good)
            payload[positions] = np.asarray(table, dtype=np.uint64).tobytes()
            with pytest.raises(CodecFormatError, match="escape positions"):
                decode_signed(bytes(payload))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            encode_signed(np.zeros(4, dtype=np.int64), block_size=0)
        with pytest.raises(ValueError):
            encode_signed(np.zeros(4, dtype=np.int64), block_size=100)
        with pytest.raises(ValueError):
            encode_signed(np.zeros(4, dtype=np.int64), width_cap=0)
        with pytest.raises(ValueError):
            encode_signed(np.zeros(4, dtype=np.int64), width_cap=65)

    @given(
        codes=st.lists(
            st.integers(min_value=-int(_MAX_CODE), max_value=int(_MAX_CODE)),
            min_size=0,
            max_size=300,
        ),
        block_size=st.sampled_from([64, 192, 1024]),
        width_cap=st.sampled_from([1, 8, 32, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_identity(self, codes, block_size, width_cap):
        arr = np.asarray(codes, dtype=np.int64)
        decoded = decode_signed(
            encode_signed(arr, block_size=block_size, width_cap=width_cap)
        )
        assert np.array_equal(decoded, arr)


class TestFrame:
    def test_roundtrip(self):
        sections = [b"", b"abc", bytes(range(256))]
        assert decode_frame(encode_frame(sections)) == sections

    def test_single_entropy_pass(self):
        payload = encode_frame([b"x" * 1000])
        # after the 6-byte header the body is exactly one DEFLATE stream
        zlib.decompress(payload[6:])

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecFormatError):
            decode_frame(b"XXXX\x01\x00" + zlib.compress(b""))

    def test_unknown_version_rejected(self):
        good = encode_frame([b"abc"])
        bad = good[:4] + struct.pack("<H", FORMAT_VERSION + 1) + good[6:]
        with pytest.raises(CodecFormatError):
            decode_frame(bad)

    def test_truncated_rejected(self):
        with pytest.raises(CodecFormatError):
            decode_frame(b"RB")
        good = encode_frame([b"abc" * 100, b"tail"])
        for cut in range(len(good)):
            with pytest.raises(CodecFormatError):
                decode_frame(good[:cut])

    def test_section_overrun_rejected(self):
        # A valid DEFLATE body whose section table overruns it.
        body = pack_sections([b"abcdef"])[:-2]
        with pytest.raises(CodecFormatError, match="truncated section frame"):
            decode_frame(b"RBCF" + struct.pack("<H", FORMAT_VERSION) + zlib.compress(body))


def _special_arrays(rng):
    outlier_heavy = np.sin(np.linspace(0, 8 * np.pi, 6000)) + 2.0
    outlier_heavy[rng.choice(6000, 12, replace=False)] *= 1e9
    return {
        "scalar_size": np.array([3.7]),
        "constant": np.full(5000, 2.5),
        "all_zero": np.zeros(5000),
        "denormal": np.array([5e-324, -5e-324, 1.5e-323, -2.5e-323, 5e-324]),
        "outlier_heavy": outlier_heavy,
    }


_BOUNDS = [
    ErrorBound("abs", 1e-6),
    ErrorBound("rel", 1e-4),
    ErrorBound.pointwise_relative(1e-4),
]


def _assert_within_bound(data, recon, bound):
    if bound.mode.value == "pw_rel":
        assert max_pointwise_relative_error(data, recon) <= bound.value * (1 + 1e-8)
    else:
        tolerance = float(bound.per_element(data).max()) if data.size else 0.0
        assert max_abs_error(data, recon) <= tolerance * (1 + 1e-8)
    assert np.all(recon[data == 0.0] == 0.0)


class TestCompressorsOnSpecialArrays:
    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    @pytest.mark.parametrize("bound", _BOUNDS, ids=lambda b: b.mode.value)
    def test_sz_special_arrays(self, predictor, bound, rng):
        comp = SZCompressor(bound, predictor=predictor)
        for name, data in _special_arrays(rng).items():
            recon, blob = _compress_roundtrip(comp, data)
            # SZ stamps sharded v2 frames since the shuffle-filtered stage.
            assert blob.format_version == SHARDED_FORMAT_VERSION, name
            _assert_within_bound(data, recon, bound)

    @pytest.mark.parametrize("bound", _BOUNDS, ids=lambda b: b.mode.value)
    def test_zfp_special_arrays(self, bound, rng):
        comp = ZFPCompressor(bound)
        for name, data in _special_arrays(rng).items():
            recon, blob = _compress_roundtrip(comp, data)
            # ZFP ships its coefficient planes through the same v2 frame.
            assert blob.format_version == SHARDED_FORMAT_VERSION, name
            _assert_within_bound(data, recon, bound)

    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_codes_at_quantizer_edge(self, predictor):
        # Values chosen so the first quantization code lands next to the
        # +-2**62 limit: the zigzag-mapped residual needs (almost) 64 bits
        # and must travel through the escape channel unharmed.
        bound = 0.5
        data = np.array([(2.0**62 - 2**12), -(2.0**62 - 2**12), 0.0, 1.0, 2.0])
        comp = SZCompressor(ErrorBound("abs", bound), predictor=predictor)
        recon, blob = _compress_roundtrip(comp, data)
        assert blob.meta["scheme"] == "abs"
        assert max_abs_error(data, recon) <= bound * (1 + 1e-8)

    @given(eb=st.sampled_from([1e-2, 1e-4, 1e-6]))
    @settings(max_examples=10, deadline=None)
    def test_sz_denormal_magnitudes_roundtrip(self, eb):
        # Smallest subnormals snap back exactly after the log round trip.
        data = np.array([5e-324, -1e-323, 2e-323, -5e-324])
        recon, _ = _compress_roundtrip(SZCompressor(eb), data)
        assert np.array_equal(recon, data)
