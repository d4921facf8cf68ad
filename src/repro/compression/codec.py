"""Versioned block codec for integer code streams (format v1).

This module is the encoding layer of the checkpoint delta layer
(:mod:`repro.checkpoint.delta`), its one writer and reader; the SZ-like and
ZFP-like compressors ship byte planes through
:mod:`repro.compression.sharded` instead.  Following real SZ (Di & Cappello,
IPDPS'16; Tao et al., IPDPS'17) the codec:

* packs codes in fixed-size blocks (:data:`DEFAULT_BLOCK_SIZE` codes) at each
  block's minimal bit width, so a locally rough region cannot inflate the
  rest of the stream,
* routes codes wider than a cap (:data:`DEFAULT_WIDTH_CAP` bits) through an
  *escape channel* — SZ's "unpredictable values" — storing them verbatim and
  leaving a zero in the block stream,
* applies exactly **one** entropy (DEFLATE) pass over the whole frame.

The **normative wire-format specification** lives in
``docs/payload-format.md``; the layout summary::

    frame    magic b"RBCF" + uint16 version, then one DEFLATE stream over
             length-prefixed sections (see encoding.pack_sections)
    stream   <QIIQ> header (code count, block size, width cap, escape count)
             widths   one uint8 per block (0 = all-zero block, no bits)
             bits     zigzag codes bit-packed LSB-first at the block width,
                      blocks concatenated with no padding between them
             escapes  positions (uint64 each) then raw zigzag values

Bit packing is whole-array NumPy ``uint64`` word-lane packing: for each
distinct block width the codes are reshaped into groups that tile exactly
onto 64-bit words — no per-element work and no 8x bit-expansion.  That
needs a block size divisible by 64 (any other is rejected) and, like every
other byte layer of the package, a little-endian host.
:mod:`repro.compression._codec_scalar` is the pure-Python executable
specification of the same stream; no product path reaches it, and
``tests/compression/test_codec_equivalence.py`` pins the two byte-identical.

A malformed frame or stream — truncated, bit-flipped, inconsistent lengths —
raises :class:`CodecFormatError`, never another exception type.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Iterable, List, Tuple

import numpy as np

from repro.compression.encoding import (
    pack_sections,
    unpack_sections,
    zigzag_decode,
    zigzag_encode,
)

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_WIDTH_CAP",
    "CodecFormatError",
    "encode_signed",
    "decode_signed",
    "encode_frame",
    "decode_frame",
]

#: Version of the ``RBCF`` frame, which delta blobs also stamp into
#: ``CompressedBlob.meta["format_version"]``.
FORMAT_VERSION = 1

#: Codes per block (a multiple of 64); each block is packed at its own
#: minimal bit width.
DEFAULT_BLOCK_SIZE = 1024

#: Codes needing more bits than this go through the escape channel.
DEFAULT_WIDTH_CAP = 32

_FRAME_MAGIC = b"RBCF"
_FRAME_HEADER = struct.Struct("<4sH")
_STREAM_HEADER = struct.Struct("<QIIQ")  # count, block size, width cap, escapes


class CodecFormatError(ValueError):
    """Raised when a payload is not a valid codec frame."""


def _bit_widths(values: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for unsigned 64-bit values."""
    values = np.asarray(values, dtype=np.uint64)
    if values.size <= 8:
        # Tiny inputs (single-digit block counts) are dominated by numpy
        # call overhead in the masked-shift scan below; ``int.bit_length``
        # is exact and ~30x faster at this size.
        return np.array([int(v).bit_length() for v in values], dtype=np.uint8)
    widths = np.zeros(values.shape, dtype=np.uint8)
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= np.uint64(1) << np.uint64(shift)
        widths[mask] += np.uint8(shift)
        v[mask] >>= np.uint64(shift)
    widths[values > 0] += np.uint8(1)
    return widths


# ----------------------------------------------------------------------
# bit packing
# ----------------------------------------------------------------------
def _lane_geometry(w: int) -> Tuple[int, int]:
    """``(P, W)``: ``P`` codes of width ``w`` tile exactly onto ``W`` words.

    ``P = 64 / gcd(w, 64)`` is the smallest code count whose packed length
    is a whole number of 64-bit words; every block is a multiple of ``P``
    codes when the block size is divisible by 64.
    """
    p = 64 // math.gcd(w, 64)
    return p, (w * p) // 64


def _pack_bits_vector(
    blocks: np.ndarray, widths: np.ndarray, bit_offsets: np.ndarray, block_size: int
) -> bytes:
    """Vectorised word-lane packer (block size divisible by 64, little-endian).

    For each distinct width ``w`` the codes are reshaped into rows of ``P``
    codes that fill exactly ``W`` 64-bit words (:func:`_lane_geometry`);
    all ``P`` lane positions are shifted in one broadcast pass and OR-folded
    onto their target words with ``bitwise_or.reduceat`` (plus one
    fancy-indexed OR for the lanes that straddle a word boundary).  The
    lanes are transposed up front so the passes run over contiguous
    memory — a handful of vector ops regardless of ``P``, no per-element
    Python, no bit expansion.  OR is order-independent, so the folded word
    image is bit-for-bit the same as accumulating lane by lane.  Because
    the block size is a multiple of 64, every block's bit segment is
    word-aligned and the little-endian word image equals the LSB-first bit
    stream byte-for-byte.
    """
    total_words = int(bit_offsets[-1]) >> 6
    word_offsets = bit_offsets[:-1] >> 6
    n_blocks = blocks.shape[0]
    words = None
    for width in np.unique(widths):
        w = int(width)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == width)
        uniform = sel.size == n_blocks
        group = blocks if uniform else blocks[sel]
        lane_p, lane_w = _lane_geometry(w)
        # lane-major copy: cols[j] is lane j of every row, contiguous
        cols = np.ascontiguousarray(group.reshape(-1, lane_p).T)
        lane_bits = np.arange(lane_p, dtype=np.int64) * w
        shifts = (lane_bits & 63).astype(np.uint64)
        word_index = lane_bits >> 6
        low = cols << shifts[:, None]
        # Every word contains at least one lane start (w <= 64), so the
        # first lane of each word marks a reduceat segment boundary.
        starts = np.searchsorted(word_index, np.arange(lane_w, dtype=np.int64))
        out = np.bitwise_or.reduceat(low, starts, axis=0)
        straddle = np.flatnonzero((lane_bits & 63) + w > 64)
        if straddle.size:
            # At most one lane straddles out of each word: target words are
            # unique, so a fancy-indexed OR lands every carry exactly once.
            high = cols[straddle] >> (np.uint64(64) - shifts[straddle])[:, None]
            out[word_index[straddle] + 1] |= high
        packed = np.ascontiguousarray(out.T).reshape(-1)
        if uniform:
            words = packed  # block offsets are consecutive: no scatter needed
            break
        if words is None:
            words = np.zeros(total_words, dtype=np.uint64)
        words_per_block = (block_size * w) >> 6
        positions = (
            word_offsets[sel][:, None]
            + np.arange(words_per_block, dtype=np.int64)[None, :]
        )
        words[positions.reshape(-1)] = packed
    if words is None:
        words = np.zeros(total_words, dtype=np.uint64)
    return words.tobytes()


def _unpack_bits_vector(
    buffer: bytes,
    offset: int,
    widths: np.ndarray,
    bit_offsets: np.ndarray,
    block_size: int,
    n_blocks: int,
) -> np.ndarray:
    """Inverse of :func:`_pack_bits_vector` (word-lane extraction)."""
    total_bits = int(bit_offsets[-1])
    nbytes = total_bits >> 3
    raw = np.frombuffer(buffer, dtype=np.uint8, count=nbytes, offset=offset)
    words = raw.copy().view(np.uint64)  # copy() realigns the buffer slice
    word_offsets = bit_offsets[:-1] >> 6
    blocks = None
    for width in np.unique(widths):
        w = int(width)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == width)
        uniform = sel.size == n_blocks
        words_per_block = (block_size * w) >> 6
        if uniform:
            group_words = words
        else:
            positions = (
                word_offsets[sel][:, None]
                + np.arange(words_per_block, dtype=np.int64)[None, :]
            )
            group_words = words[positions.reshape(-1)]
        lane_p, lane_w = _lane_geometry(w)
        rows = np.ascontiguousarray(group_words.reshape(-1, lane_w).T)
        mask = np.uint64(0xFFFFFFFFFFFFFFFF) if w == 64 else np.uint64((1 << w) - 1)
        lane_bits = np.arange(lane_p, dtype=np.int64) * w
        shifts = (lane_bits & 63).astype(np.uint64)
        word_index = lane_bits >> 6
        vals = rows[word_index] >> shifts[:, None]
        straddle = np.flatnonzero((lane_bits & 63) + w > 64)
        if straddle.size:
            vals[straddle] |= (
                rows[word_index[straddle] + 1]
                << (np.uint64(64) - shifts[straddle])[:, None]
            )
        if w < 64:
            vals &= mask
        decoded = np.ascontiguousarray(vals.T).reshape(-1, block_size)
        if uniform:
            return decoded
        if blocks is None:
            blocks = np.zeros((n_blocks, block_size), dtype=np.uint64)
        blocks[sel] = decoded
    if blocks is None:
        blocks = np.zeros((n_blocks, block_size), dtype=np.uint64)
    return blocks


# ----------------------------------------------------------------------
# block stream
# ----------------------------------------------------------------------
def encode_signed(
    codes: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    width_cap: int = DEFAULT_WIDTH_CAP,
) -> bytes:
    """Encode signed int64 codes as a v1 block stream (no entropy stage).

    Codes are zigzag-mapped, outliers wider than ``width_cap`` bits are
    diverted to the escape channel, and each ``block_size``-code block is
    bit-packed at its own minimal width.

    Parameters
    ----------
    codes:
        Signed integer codes (any shape; flattened in C order).
    block_size:
        Codes per width block, a positive multiple of 64 (so every block's
        bit segment is word-aligned); the default 1024 follows SZ.
    width_cap:
        Escape threshold in bits, in ``[1, 64]``.

    Returns
    -------
    bytes
        The block stream: header, per-block widths, packed bits, escapes.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64).reshape(-1)
    block_size = int(block_size)
    width_cap = int(width_cap)
    if block_size < 1 or block_size % 64:
        raise ValueError(
            f"block_size must be a positive multiple of 64, got {block_size}"
        )
    if not (1 <= width_cap <= 64):
        raise ValueError(f"width_cap must be in [1, 64], got {width_cap}")

    unsigned = zigzag_encode(codes)
    count = unsigned.size
    if count == 0:
        return _STREAM_HEADER.pack(0, block_size, width_cap, 0)

    if width_cap >= 64:
        escape_positions = np.empty(0, dtype=np.uint64)
        escape_values = np.empty(0, dtype=np.uint64)
        inline = unsigned
    else:
        escape_mask = unsigned >= np.uint64(1) << np.uint64(width_cap)
        escape_positions = np.flatnonzero(escape_mask).astype(np.uint64)
        if escape_positions.size:
            escape_values = unsigned[escape_mask]
            inline = np.where(escape_mask, np.uint64(0), unsigned)
        else:
            escape_values = np.empty(0, dtype=np.uint64)
            inline = unsigned

    n_blocks = -(-count // block_size)
    if n_blocks * block_size == count:
        padded = inline
    else:
        padded = np.zeros(n_blocks * block_size, dtype=np.uint64)
        padded[:count] = inline
    blocks = padded.reshape(n_blocks, block_size)
    widths = _bit_widths(blocks.max(axis=1))
    bit_offsets = np.concatenate(
        ([0], np.cumsum(widths.astype(np.int64) * block_size))
    )
    return b"".join(
        [
            _STREAM_HEADER.pack(count, block_size, width_cap, escape_values.size),
            widths.tobytes(),
            _pack_bits_vector(blocks, widths, bit_offsets, block_size),
            escape_positions.tobytes(),
            escape_values.tobytes(),
        ]
    )


def decode_signed(buffer: bytes) -> np.ndarray:
    """Inverse of :func:`encode_signed`.

    Parameters
    ----------
    buffer:
        A block stream produced by :func:`encode_signed`.

    Returns
    -------
    numpy.ndarray
        The original signed int64 code array.

    Raises
    ------
    CodecFormatError
        If the stream is not exactly what its header describes: short or
        over-long, an invalid block size / width cap / block width, or an
        escape table that is out of range, out of order or shadows a
        nonzero inline slot.
    """
    if len(buffer) < _STREAM_HEADER.size:
        raise CodecFormatError("block stream shorter than its header")
    count, block_size, width_cap, n_escapes = _STREAM_HEADER.unpack_from(buffer, 0)
    offset = _STREAM_HEADER.size
    if not (1 <= width_cap <= 64):
        raise CodecFormatError(f"corrupt block stream: width cap {width_cap}")
    if block_size < 1 or block_size % 64:
        raise CodecFormatError(f"corrupt block stream: block size {block_size}")

    n_blocks = -(-count // block_size)
    if n_blocks > len(buffer) - offset:
        raise CodecFormatError(
            f"truncated block stream: {n_blocks} block widths declared, "
            f"{len(buffer) - offset} bytes follow the header"
        )
    widths = np.frombuffer(buffer, dtype=np.uint8, count=n_blocks, offset=offset)
    if n_blocks and int(widths.max()) > width_cap:
        raise CodecFormatError(
            f"corrupt block stream: block width {int(widths.max())} "
            f"exceeds the width cap {width_cap}"
        )
    offset += n_blocks
    bit_offsets = np.concatenate(
        ([0], np.cumsum(widths.astype(np.int64) * block_size))
    )
    nbytes = int(bit_offsets[-1]) >> 3  # whole words: block_size % 64 == 0
    expected = offset + nbytes + 16 * n_escapes
    if len(buffer) != expected:
        raise CodecFormatError(
            f"corrupt block stream: header describes {expected} bytes, "
            f"got {len(buffer)}"
        )

    blocks = _unpack_bits_vector(
        buffer, offset, widths, bit_offsets, block_size, n_blocks
    )
    offset += nbytes

    unsigned = blocks.reshape(-1)[:count]
    if n_escapes:
        positions = np.frombuffer(
            buffer, dtype=np.uint64, count=n_escapes, offset=offset
        )
        offset += 8 * n_escapes
        values = np.frombuffer(buffer, dtype=np.uint64, count=n_escapes, offset=offset)
        if int(positions.max()) >= count:
            raise CodecFormatError(
                f"corrupt block stream: escape position {int(positions.max())} "
                f">= code count {count}"
            )
        slots = positions.astype(np.int64)
        if np.any(slots[1:] <= slots[:-1]) or unsigned[slots].any():
            raise CodecFormatError(
                "corrupt block stream: escape positions must ascend and "
                "their inline slots hold zero"
            )
        unsigned[slots] = values
    return zigzag_decode(unsigned)


# ----------------------------------------------------------------------
# frame = versioned header + one entropy pass
# ----------------------------------------------------------------------
def encode_frame(sections: Iterable[bytes], *, level: int = 6) -> bytes:
    """Wrap byte sections in a v1 frame with a single DEFLATE pass.

    Parameters
    ----------
    sections:
        The raw sections, in order (see ``encoding.pack_sections``).
    level:
        DEFLATE effort, 0-9.

    Returns
    -------
    bytes
        ``b"RBCF"`` + version + one zlib stream over the packed sections.
    """
    body = zlib.compress(pack_sections(list(sections)), level)
    return _FRAME_HEADER.pack(_FRAME_MAGIC, FORMAT_VERSION) + body


def decode_frame(payload: bytes) -> List[bytes]:
    """Inverse of :func:`encode_frame`; returns the raw sections.

    Raises
    ------
    CodecFormatError
        On a short payload, bad magic, an unsupported format version, a
        DEFLATE body that does not inflate (truncation, failed Adler-32) or
        section lengths that overrun the inflated body.
    """
    if len(payload) < _FRAME_HEADER.size:
        raise CodecFormatError("payload too short for a codec frame")
    magic, version = _FRAME_HEADER.unpack_from(payload, 0)
    if magic != _FRAME_MAGIC:
        raise CodecFormatError(f"bad codec frame magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CodecFormatError(
            f"unsupported codec format version {version} (supported: {FORMAT_VERSION})"
        )
    try:
        return unpack_sections(zlib.decompress(payload[_FRAME_HEADER.size :]))
    except (zlib.error, ValueError) as exc:
        raise CodecFormatError(f"corrupt codec frame: {exc}") from exc
