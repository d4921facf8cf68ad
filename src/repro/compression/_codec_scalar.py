"""Pure-Python reference implementation of the v1 block-codec bit stream.

This module is the *executable specification* for the codec's block stream
(``docs/payload-format.md``): plain loops over Python integers, one code at
a time, with no NumPy bit tricks.  The vectorised implementation in
:mod:`repro.compression.codec` must produce byte-identical output — pinned
by ``tests/compression/test_codec_equivalence.py``, which calls the two
functions below directly.  No product path imports this module; it is
orders of magnitude slower than the codec and exists for verification
only.  (It accepts any block size ``>= 1``; the codec itself only multiples
of 64.)
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

_STREAM_HEADER = struct.Struct("<QIIQ")
_MASK64 = (1 << 64) - 1


def _zigzag(value: int) -> int:
    """Map a signed 64-bit int to unsigned: 0,-1,1,-2,... -> 0,1,2,3,..."""
    return ((value << 1) ^ (value >> 63)) & _MASK64


def _unzigzag(value: int) -> int:
    """Inverse of :func:`_zigzag`."""
    return (value >> 1) ^ -(value & 1)


def encode_signed_scalar(
    codes: np.ndarray, *, block_size: int = 1024, width_cap: int = 32
) -> bytes:
    """Reference encoder; see ``codec.encode_signed`` for the contract."""
    block_size = int(block_size)
    width_cap = int(width_cap)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if not (1 <= width_cap <= 64):
        raise ValueError(f"width_cap must be in [1, 64], got {width_cap}")

    values = [int(c) for c in np.asarray(codes, dtype=np.int64).reshape(-1)]
    count = len(values)
    if count == 0:
        return _STREAM_HEADER.pack(0, block_size, width_cap, 0)

    # Zigzag map, then divert codes wider than the cap to the escape
    # channel, leaving a zero in the block stream.
    unsigned = [_zigzag(v) for v in values]
    escape_positions: List[int] = []
    escape_values: List[int] = []
    inline: List[int] = []
    limit = 1 << width_cap if width_cap < 64 else 1 << 64
    for position, u in enumerate(unsigned):
        if u >= limit:
            escape_positions.append(position)
            escape_values.append(u)
            inline.append(0)
        else:
            inline.append(u)

    # Pad the final partial block with zeros (they cost bits only if the
    # block already has a nonzero width).
    n_blocks = -(-count // block_size)
    inline.extend([0] * (n_blocks * block_size - count))

    # One width byte per block: the minimal bit width of its widest code.
    widths = []
    for b in range(n_blocks):
        block = inline[b * block_size : (b + 1) * block_size]
        widths.append(max(u.bit_length() for u in block))

    # Bit-pack every code LSB-first at its block's width, blocks abutting
    # with no padding between them.
    packed = bytearray()
    acc = 0
    n_bits = 0
    for b in range(n_blocks):
        w = widths[b]
        if w == 0:
            continue
        for u in inline[b * block_size : (b + 1) * block_size]:
            acc |= u << n_bits
            n_bits += w
            while n_bits >= 8:
                packed.append(acc & 0xFF)
                acc >>= 8
                n_bits -= 8
    if n_bits:
        packed.append(acc & 0xFF)

    out = bytearray()
    out += _STREAM_HEADER.pack(count, block_size, width_cap, len(escape_values))
    out += bytes(widths)
    out += packed
    for position in escape_positions:
        out += struct.pack("<Q", position)
    for u in escape_values:
        out += struct.pack("<Q", u)
    return bytes(out)


def decode_signed_scalar(buffer: bytes) -> np.ndarray:
    """Reference decoder; see ``codec.decode_signed`` for the contract."""
    from repro.compression.codec import CodecFormatError

    count, block_size, width_cap, n_escapes = _STREAM_HEADER.unpack_from(buffer, 0)
    offset = _STREAM_HEADER.size
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if not (1 <= width_cap <= 64):
        raise CodecFormatError(f"corrupt block stream: width cap {width_cap}")
    if block_size < 1:
        raise CodecFormatError(f"corrupt block stream: block size {block_size}")

    n_blocks = -(-count // block_size)
    widths = list(buffer[offset : offset + n_blocks])
    offset += n_blocks

    # Bit-unpack: mirror image of the encoder's byte accumulator.
    unsigned: List[int] = []
    acc = 0
    n_avail = 0
    cursor = offset
    for b in range(n_blocks):
        w = widths[b]
        if w == 0:
            unsigned.extend([0] * block_size)
            continue
        mask = (1 << w) - 1
        for _ in range(block_size):
            while n_avail < w:
                acc |= buffer[cursor] << n_avail
                cursor += 1
                n_avail += 8
            unsigned.append(acc & mask)
            acc >>= w
            n_avail -= w
    total_bits = sum(w * block_size for w in widths)
    offset += (total_bits + 7) // 8
    unsigned = unsigned[:count]

    for i in range(n_escapes):
        (position,) = struct.unpack_from("<Q", buffer, offset + 8 * i)
        (value,) = struct.unpack_from("<Q", buffer, offset + 8 * (n_escapes + i))
        if position >= count:
            raise CodecFormatError(
                f"corrupt block stream: escape position {position} "
                f">= code count {count}"
            )
        unsigned[position] = value

    return np.asarray([_unzigzag(u) for u in unsigned], dtype=np.int64)
