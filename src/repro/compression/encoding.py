"""Low-level integer/byte encoders shared by the lossy compressors.

These helpers implement the bit-level plumbing:

* zigzag mapping (signed -> unsigned so small magnitudes get small codes),
* fixed-width bit packing at one global minimum width for the whole stream,
* a simple frame format for concatenating heterogeneous sections.

The zigzag and section helpers remain the building blocks of the versioned
block codec (:mod:`repro.compression.codec`).  :func:`pack_unsigned` /
:func:`unpack_unsigned` are the pre-codec (format version 0) whole-stream
encoder: one global bit width means a single outlier code inflates every
element, which is why payloads use the codec's per-block widths plus
escape channel instead.  No compressor reads or writes them any more; the
codec tests and ``BENCH_codec`` keep them as the ratio/throughput baseline.

Everything is vectorised NumPy (no per-element Python loops) following the
HPC-Python guidance used for this project.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "pack_unsigned",
    "unpack_unsigned",
    "pack_sections",
    "unpack_sections",
]

_HEADER = struct.Struct("<QI")  # element count, bit width


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned so small |v| become small codes."""
    values = np.asarray(values, dtype=np.int64)
    out = values << 1
    out ^= values >> 63
    return out.view(np.uint64)


def zigzag_decode(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    codes = np.asarray(codes, dtype=np.uint64)
    out = (codes >> np.uint64(1)).view(np.int64)
    out ^= -(codes & np.uint64(1)).view(np.int64)
    return out


def _bit_width(max_value: int) -> int:
    if max_value <= 0:
        return 1
    return int(max_value).bit_length()


def pack_unsigned(codes: np.ndarray) -> bytes:
    """Pack unsigned integers at the minimal fixed bit width.

    The result starts with an 12-byte header (count, bit width) followed by
    the packed little-endian bit stream.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    count = codes.size
    if count == 0:
        return _HEADER.pack(0, 1)
    width = _bit_width(int(codes.max()))
    header = _HEADER.pack(count, width)
    # Expand each code into `width` bits (LSB first), then pack to bytes.
    bit_matrix = (
        (codes[:, None] >> np.arange(width, dtype=np.uint64)[None, :]) & np.uint64(1)
    ).astype(np.uint8)
    bits = bit_matrix.reshape(-1)
    packed = np.packbits(bits, bitorder="little")
    return header + packed.tobytes()


def unpack_unsigned(buffer: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`pack_unsigned`; returns (codes, bytes consumed)."""
    count, width = _HEADER.unpack_from(buffer, 0)
    if count == 0:
        return np.empty(0, dtype=np.uint64), _HEADER.size
    total_bits = count * width
    nbytes = (total_bits + 7) // 8
    raw = np.frombuffer(buffer, dtype=np.uint8, count=nbytes, offset=_HEADER.size)
    bits = np.unpackbits(raw, bitorder="little")[:total_bits]
    bit_matrix = bits.reshape(count, width).astype(np.uint64)
    codes = (bit_matrix << np.arange(width, dtype=np.uint64)[None, :]).sum(
        axis=1, dtype=np.uint64
    )
    return codes, _HEADER.size + nbytes


_SECTION_HEADER = struct.Struct("<I")


def pack_sections(sections: List[bytes]) -> bytes:
    """Concatenate length-prefixed byte sections into one frame."""
    parts = [_SECTION_HEADER.pack(len(sections))]
    for section in sections:
        parts.append(_SECTION_HEADER.pack(len(section)))
        parts.append(section)
    return b"".join(parts)


def unpack_sections(frame: bytes) -> List[bytes]:
    """Inverse of :func:`pack_sections`."""
    (count,) = _SECTION_HEADER.unpack_from(frame, 0)
    offset = _SECTION_HEADER.size
    sections: List[bytes] = []
    for _ in range(count):
        (length,) = _SECTION_HEADER.unpack_from(frame, offset)
        offset += _SECTION_HEADER.size
        sections.append(frame[offset:offset + length])
        offset += length
    return sections
