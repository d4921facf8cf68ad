"""Versioned block codec for quantization-code streams (format v1).

This module is the encoding layer of the checkpoint delta layer
(:mod:`repro.checkpoint.delta`, its one remaining writer) and the read path
for v1 blobs of the SZ-like and ZFP-like compressors, which now write byte
planes through :mod:`repro.compression.sharded`.  It replaced the legacy
whole-stream encoder in :mod:`repro.compression.encoding`, which packed
every code at one *global* bit width (a single outlier inflated the whole
stream) and, on the pointwise-relative paths, DEFLATEd an already-DEFLATEd
inner section.  Following real SZ (Di & Cappello, IPDPS'16; Tao et al.,
IPDPS'17) the v1 codec instead:

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

Compressors stamp ``format_version`` into ``CompressedBlob.meta``; SZ/ZFP
payloads without it predate this codec and are rejected.

Backends
--------
The bit-packing hot path has three interchangeable implementations, all
producing **bitwise-identical** streams (pinned by
``tests/compression/test_codec_equivalence.py``):

``vector`` (default)
    Whole-array NumPy ``uint64`` word-lane packing: for each distinct block
    width the codes are reshaped into groups that tile exactly onto 64-bit
    words, then assembled with at most 64 shift/OR passes per width — no
    per-element work and no 8x bit-expansion.  Requires a little-endian host
    and a block size divisible by 64 (the defaults); anything else falls
    back to the bit-matrix path below.
``scalar``
    A deliberately simple pure-Python reference implementation
    (:mod:`repro.compression._codec_scalar`) that reads like the format
    specification.  Orders of magnitude slower; used as the equivalence
    oracle and as a portability fallback.
``numba``
    Optional JIT-compiled kernels (:mod:`repro.compression._codec_numba`),
    used only when numba is importable.  Selecting it without numba
    installed falls back to ``vector`` with a warning.

Select a backend globally with the ``REPRO_CODEC`` environment variable
(``vector`` | ``scalar`` | ``numba``) or per call via the ``backend``
keyword of :func:`encode_signed` / :func:`decode_signed`.

Run the codec microbenchmarks with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_codec.py -q -s

which also writes ``BENCH_codec.json`` (ratio + MB/s per workload).
"""

from __future__ import annotations

import math
import os
import struct
import sys
import warnings
import zlib
from typing import Iterable, List, Optional, Tuple

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
    "CODEC_BACKEND_ENV",
    "CodecFormatError",
    "available_backends",
    "resolve_backend",
    "encode_signed",
    "decode_signed",
    "encode_frame",
    "decode_frame",
]

#: Current payload format version, stamped into ``CompressedBlob.meta``.
FORMAT_VERSION = 1

#: Codes per block; each block is packed at its own minimal bit width.
DEFAULT_BLOCK_SIZE = 1024

#: Codes needing more bits than this go through the escape channel.
DEFAULT_WIDTH_CAP = 32

#: Environment variable selecting the bit-packing backend.
CODEC_BACKEND_ENV = "REPRO_CODEC"

_BACKENDS = ("vector", "scalar", "numba")

_FRAME_MAGIC = b"RBCF"
_FRAME_HEADER = struct.Struct("<4sH")
_STREAM_HEADER = struct.Struct("<QIIQ")  # count, block size, width cap, escapes

_LITTLE_ENDIAN = sys.byteorder == "little"


class CodecFormatError(ValueError):
    """Raised when a payload is not a valid codec frame."""


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def _numba_kernels():
    """The JIT kernel module, or ``None`` when numba is not installed."""
    try:
        from repro.compression import _codec_numba
    except ImportError:  # pragma: no cover - depends on environment
        return None
    return _codec_numba if _codec_numba.HAVE_NUMBA else None


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this environment (``numba`` only if importable)."""
    names = ["vector", "scalar"]
    if _numba_kernels() is not None:
        names.append("numba")
    return tuple(names)


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name (or ``None`` = the ``REPRO_CODEC`` default).

    Parameters
    ----------
    backend:
        ``"vector"``, ``"scalar"``, ``"numba"`` or ``None`` to read the
        :data:`CODEC_BACKEND_ENV` environment variable (default
        ``"vector"``).

    Returns
    -------
    str
        The backend that will actually run.  Requesting ``numba`` without
        numba installed warns once and returns ``"vector"`` so pipelines
        keep working on machines without the optional dependency.
    """
    if backend is None:
        backend = os.environ.get(CODEC_BACKEND_ENV, "vector") or "vector"
    backend = str(backend).lower()
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown codec backend {backend!r}; choose one of {_BACKENDS}"
        )
    if backend == "numba" and _numba_kernels() is None:
        warnings.warn(
            "REPRO_CODEC=numba requested but numba is not installed; "
            "falling back to the vector backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return "vector"
    return backend


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
# bit packing backends (all produce identical byte streams)
# ----------------------------------------------------------------------
def _pack_bits_matrix(
    blocks: np.ndarray, widths: np.ndarray, bit_offsets: np.ndarray, block_size: int
) -> bytes:
    """Portable packer: expand each code into bits, then ``np.packbits``.

    Works for any block size / byte order, at the cost of materialising one
    uint8 per *bit*.  Kept as the fallback for non-64-aligned block sizes
    and big-endian hosts.
    """
    bits = np.zeros(int(bit_offsets[-1]), dtype=np.uint8)
    for width in np.unique(widths):
        w = int(width)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == width)
        shifts = np.arange(w, dtype=np.uint64)
        bit_matrix = (
            (blocks[sel][:, :, None] >> shifts[None, None, :]) & np.uint64(1)
        ).astype(np.uint8)
        positions = (
            bit_offsets[sel][:, None]
            + np.arange(block_size * w, dtype=np.int64)[None, :]
        )
        bits[positions.reshape(-1)] = bit_matrix.reshape(-1)
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_bits_matrix(
    buffer: bytes,
    offset: int,
    widths: np.ndarray,
    bit_offsets: np.ndarray,
    block_size: int,
    n_blocks: int,
) -> np.ndarray:
    """Inverse of :func:`_pack_bits_matrix` (portable fallback)."""
    total_bits = int(bit_offsets[-1])
    nbytes = (total_bits + 7) // 8
    raw = np.frombuffer(buffer, dtype=np.uint8, count=nbytes, offset=offset)
    bits = np.unpackbits(raw, bitorder="little")[:total_bits]
    blocks = np.zeros((n_blocks, block_size), dtype=np.uint64)
    for width in np.unique(widths):
        w = int(width)
        if w == 0:
            continue
        sel = np.flatnonzero(widths == width)
        positions = (
            bit_offsets[sel][:, None]
            + np.arange(block_size * w, dtype=np.int64)[None, :]
        )
        group = bits[positions.reshape(-1)].reshape(len(sel), block_size, w)
        shifts = np.arange(w, dtype=np.uint64)
        blocks[sel] = (group.astype(np.uint64) << shifts[None, None, :]).sum(
            axis=2, dtype=np.uint64
        )
    return blocks


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


def _vector_path_ok(block_size: int) -> bool:
    """Whether the word-lane fast path applies for this block size."""
    return _LITTLE_ENDIAN and block_size % 64 == 0


# ----------------------------------------------------------------------
# block stream
# ----------------------------------------------------------------------
def encode_signed(
    codes: np.ndarray,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    width_cap: int = DEFAULT_WIDTH_CAP,
    backend: Optional[str] = None,
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
        Codes per width block, ``>= 1``; the default 1024 follows SZ.
    width_cap:
        Escape threshold in bits, in ``[1, 64]``.
    backend:
        Bit-packing implementation (``"vector"``/``"scalar"``/``"numba"``);
        ``None`` reads :data:`CODEC_BACKEND_ENV`.  All backends produce
        bitwise-identical streams.

    Returns
    -------
    bytes
        The block stream: header, per-block widths, packed bits, escapes.
    """
    backend = resolve_backend(backend)
    if backend == "scalar":
        from repro.compression import _codec_scalar

        return _codec_scalar.encode_signed_scalar(
            codes, block_size=block_size, width_cap=width_cap
        )

    codes = np.ascontiguousarray(codes, dtype=np.int64).reshape(-1)
    block_size = int(block_size)
    width_cap = int(width_cap)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
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

    kernels = _numba_kernels() if backend == "numba" else None
    if kernels is not None:
        packed = kernels.pack_bits(padded, widths, bit_offsets, block_size)
    elif _vector_path_ok(block_size):
        packed = _pack_bits_vector(blocks, widths, bit_offsets, block_size)
    else:
        packed = _pack_bits_matrix(blocks, widths, bit_offsets, block_size)

    return b"".join(
        [
            _STREAM_HEADER.pack(count, block_size, width_cap, escape_values.size),
            widths.tobytes(),
            packed,
            escape_positions.tobytes(),
            escape_values.tobytes(),
        ]
    )


def decode_signed(buffer: bytes, *, backend: Optional[str] = None) -> np.ndarray:
    """Inverse of :func:`encode_signed`.

    Parameters
    ----------
    buffer:
        A block stream produced by :func:`encode_signed` (any backend).
    backend:
        Bit-unpacking implementation; ``None`` reads
        :data:`CODEC_BACKEND_ENV`.

    Returns
    -------
    numpy.ndarray
        The original signed int64 code array.

    Raises
    ------
    CodecFormatError
        If the stream header or escape table is corrupt.
    """
    backend = resolve_backend(backend)
    if backend == "scalar":
        from repro.compression import _codec_scalar

        return _codec_scalar.decode_signed_scalar(buffer)

    count, block_size, width_cap, n_escapes = _STREAM_HEADER.unpack_from(buffer, 0)
    offset = _STREAM_HEADER.size
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if not (1 <= width_cap <= 64):
        raise CodecFormatError(f"corrupt block stream: width cap {width_cap}")
    if block_size < 1:
        raise CodecFormatError(f"corrupt block stream: block size {block_size}")

    n_blocks = -(-count // block_size)
    widths = np.frombuffer(buffer, dtype=np.uint8, count=n_blocks, offset=offset)
    offset += n_blocks
    bit_offsets = np.concatenate(
        ([0], np.cumsum(widths.astype(np.int64) * block_size))
    )
    total_bits = int(bit_offsets[-1])
    nbytes = (total_bits + 7) // 8

    kernels = _numba_kernels() if backend == "numba" else None
    if kernels is not None:
        blocks = kernels.unpack_bits(
            buffer, offset, widths, bit_offsets, block_size, n_blocks
        )
    elif _vector_path_ok(block_size):
        blocks = _unpack_bits_vector(
            buffer, offset, widths, bit_offsets, block_size, n_blocks
        )
    else:
        blocks = _unpack_bits_matrix(
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
        if positions.size and int(positions.max()) >= count:
            raise CodecFormatError(
                f"corrupt block stream: escape position {int(positions.max())} "
                f">= code count {count}"
            )
        unsigned[positions.astype(np.int64)] = values
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
        On a short payload, bad magic, or an unsupported format version.
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
    return unpack_sections(zlib.decompress(payload[_FRAME_HEADER.size :]))
