"""Tests for the low-level zigzag and section encoders."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.encoding import (
    pack_sections,
    unpack_sections,
    zigzag_decode,
    zigzag_encode,
)


class TestZigzag:
    def test_small_magnitudes_get_small_codes(self):
        values = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        codes = zigzag_encode(values)
        assert list(codes) == [0, 1, 2, 3, 4]

    def test_roundtrip_extremes(self):
        values = np.array([0, 1, -1, 2**40, -(2**40)], dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(values)), values)

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(arr)), arr)


class TestSections:
    def test_roundtrip(self):
        sections = [b"", b"abc", b"\x00\x01\x02" * 10]
        assert unpack_sections(pack_sections(sections)) == sections

    def test_single_section(self):
        assert unpack_sections(pack_sections([b"hello"])) == [b"hello"]

    @given(st.lists(st.binary(max_size=64), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, sections):
        assert unpack_sections(pack_sections(sections)) == sections

    def test_every_truncation_is_rejected(self):
        """A count or length field that overruns the frame is an error, not
        a silently short section."""
        frame = pack_sections([b"abc", b"", b"\x00" * 9])
        for cut in range(len(frame)):
            with pytest.raises(ValueError, match="truncated section frame"):
                unpack_sections(frame[:cut])

    def test_overlong_length_field_is_rejected(self):
        frame = struct.pack("<II", 1, 1000) + b"short"
        with pytest.raises(ValueError, match="declares 1000 bytes, 5 remain"):
            unpack_sections(frame)

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(ValueError, match="1 trailing bytes"):
            unpack_sections(pack_sections([b"abc"]) + b"\x00")
