"""Low-level integer/byte encoders shared by the lossy compressors.

These helpers implement the bit-level plumbing:

* zigzag mapping (signed -> unsigned so small magnitudes get small codes),
* a simple frame format for concatenating heterogeneous sections.

They are the building blocks of the block codec
(:mod:`repro.compression.codec`); the zigzag mapping also feeds the byte
planes the SZ-like and ZFP-like compressors ship.

Everything is vectorised NumPy (no per-element Python loops) following the
HPC-Python guidance used for this project.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "pack_sections",
    "unpack_sections",
]


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


_SECTION_HEADER = struct.Struct("<I")


def pack_sections(sections: List[bytes]) -> bytes:
    """Concatenate length-prefixed byte sections into one frame."""
    parts = [_SECTION_HEADER.pack(len(sections))]
    for section in sections:
        parts.append(_SECTION_HEADER.pack(len(section)))
        parts.append(section)
    return b"".join(parts)


def unpack_sections(frame: bytes) -> List[bytes]:
    """Inverse of :func:`pack_sections`.

    Raises ``ValueError`` when the count or a length field overruns the
    frame — a truncated frame never yields a silently short section — or
    when bytes follow the final section.
    """
    prefix = _SECTION_HEADER.size
    if len(frame) < prefix:
        raise ValueError("truncated section frame: no section count")
    (count,) = _SECTION_HEADER.unpack_from(frame, 0)
    offset = prefix
    sections: List[bytes] = []
    for index in range(count):
        if offset + prefix > len(frame):
            raise ValueError(
                f"truncated section frame: {index} of {count} sections present"
            )
        (length,) = _SECTION_HEADER.unpack_from(frame, offset)
        offset += prefix
        if offset + length > len(frame):
            raise ValueError(
                f"truncated section frame: section {index} declares {length} "
                f"bytes, {len(frame) - offset} remain"
            )
        sections.append(frame[offset:offset + length])
        offset += length
    if offset != len(frame):
        raise ValueError(
            f"{len(frame) - offset} trailing bytes after the final section"
        )
    return sections
