"""Sharded, entropy-gated compression frames (payload format v2, ``RSF2``).

One frame transports an ordered list of byte *sections* (byte planes, code
planes, masks, headers — the producer fixes their meaning, exactly like the
v1 ``RBCF`` frame).  Each section is split into fixed :data:`SHARD_SIZE`
shards and every shard is stored under the cheapest of three methods:

* **zero** — the shard is all zero bytes; it costs 0 payload bytes,
* **raw** — the shard's histogram entropy meets
  :data:`~repro.compression.filters.ENTROPY_GATE_BITS` (or the codec failed
  to shrink it); stored verbatim,
* **deflate** / **lzma** — the shard compressed by the frame's codec.

Shard compression fans out over a ``ThreadPoolExecutor`` — ``zlib`` and
``lzma`` release the GIL — but only when the bytes actually entering the
codec (the summed size of the coded shards; zero and raw shards cost
nothing) reach :data:`FANOUT_MIN_CODED_BYTES`.  Below it the shards are
compressed inline and no pool exists: spinning one up per call made every
checkpoint-sized frame slower, not faster.  The pool is per call, never
process-global — campaign workers fork, and a forked pool has no threads.

The framing is *deterministic by construction*: method selection is a pure
per-shard function, shard payloads are concatenated in (section, shard
index) order, and the header is derived only from sizes, so the frame bytes
are bit-identical for any worker count on either side of the threshold
(``tests/compression/test_sharded.py`` pins 1, 2 and 8 threads).  The
thread count — an upper bound, applied only above the threshold — resolves
from the constructor/call argument, then the ``REPRO_COMPRESS_THREADS``
environment variable, then the CPU count; campaign worker processes pin it
to 1 so shard threads never oversubscribe the process pool.

Frame layout (all little-endian; normative spec in
``docs/payload-format.md``):

```
magic "RSF2" | u16 version=2 | u8 codec | u8 level | u32 shard_size | u32 n_sections
per section:  u64 orig_len | u32 n_shards
per shard:    u8 method | u32 stored_len        (sections in order)
shard payloads, concatenated in (section, shard) order
```
"""

from __future__ import annotations

import lzma
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.compression.filters import ENTROPY_GATE_BITS, plane_entropy

__all__ = [
    "SHARDED_FORMAT_VERSION",
    "SHARD_SIZE",
    "FANOUT_MIN_CODED_BYTES",
    "ShardedFormatError",
    "resolve_threads",
    "compress_sections",
    "decompress_sections",
]

#: Stamped into ``CompressedBlob.meta["format_version"]`` by the compressors
#: (all of which write RSF2 frames); their readers accept no other version.
SHARDED_FORMAT_VERSION = 2

#: Fixed shard size.  Large enough that per-shard overhead (5 bytes + one
#: DEFLATE stream header) is noise, small enough that multi-megabyte
#: sections fan out across threads.
SHARD_SIZE = 1 << 20

#: Coded bytes (summed size of the shards that enter the codec) a frame
#: needs before shard compression fans out over threads.  Chosen from the
#: ``threads_sweep`` of a since-deleted pipeline microbenchmark — lossless
#: float64 vectors, a quarter of whose bytes are coded (the mantissa planes
#: ship raw); MiB/s of input at 1 thread vs 2 threads with fan-out forced,
#: 2-CPU host, best of 5, range of the ratio over three runs:
#:
#: ========  ===========  ========  ================  ===========
#: input     coded bytes  1 thread  2 threads forced  ratio
#: ========  ===========  ========  ================  ===========
#: 32 KiB    8 KiB        206       78                0.38-0.42x
#: 128 KiB   32 KiB       545       285               0.44-0.52x
#: 512 KiB   128 KiB      843       578               0.67-0.69x
#: 2 MiB     512 KiB      800       719               0.90-0.96x
#: 8 MiB     2 MiB        811       782               0.92-1.01x
#: 16 MiB    4 MiB        661       666               1.01-1.22x
#: 32 MiB    8 MiB        660       616               0.90-1.16x
#: ========  ===========  ========  ================  ===========
#:
#: A pool costs ~0.3 ms to start and join while a 32-KiB checkpoint vector
#: compresses in 0.15 ms, so fan-out loses at every frame below 4 MiB of
#: coded bytes and can only pay from there up.
FANOUT_MIN_CODED_BYTES = 4 << 20

_MAGIC = b"RSF2"
_HEADER = struct.Struct("<4sHBBII")
_SECTION = struct.Struct("<QI")
_SHARD = struct.Struct("<BI")

_METHOD_ZERO = 0
_METHOD_RAW = 1
_METHOD_CODED = 2

#: Below this shard size the entropy estimate costs more than simply trying
#: the codec and falling back to raw when it fails to shrink the shard.
_ENTROPY_MIN_BYTES = 4096

_CODEC_DEFLATE = 2
_CODEC_LZMA = 3
_CODECS = {"deflate": _CODEC_DEFLATE, "lzma": _CODEC_LZMA}


class ShardedFormatError(ValueError):
    """A payload violates the RSF2 frame format."""


_CPU_DEFAULT = max(1, min(8, os.cpu_count() or 1))


def resolve_threads(threads: Optional[int] = None) -> int:
    """Upper bound on shard-compression workers for one call.

    Explicit argument first, then ``REPRO_COMPRESS_THREADS``, then the CPU
    count (capped at 8 — shard compression saturates memory bandwidth well
    before that).  Always at least 1.  A frame whose coded bytes stay below
    :data:`FANOUT_MIN_CODED_BYTES` is compressed inline whatever this says.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("REPRO_COMPRESS_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return _CPU_DEFAULT


def _compress_shard(codec: int, level: int, data) -> bytes:
    if codec == _CODEC_DEFLATE:
        return zlib.compress(data, level)
    return lzma.compress(data, preset=level)


def _decompress_shard(codec: int, data) -> bytes:
    if codec == _CODEC_DEFLATE:
        return zlib.decompress(data)
    return lzma.decompress(data)


def compress_sections(
    sections: Sequence,
    *,
    codec: str = "deflate",
    level: int = 6,
    threads: Optional[int] = None,
    gate: bool = True,
) -> bytes:
    """Pack byte sections into one RSF2 frame (bit-identical for any
    ``threads``).

    ``sections`` holds contiguous byte buffers (``bytes``, ``memoryview`` or
    uint8-viewable arrays).  With ``gate`` enabled, shards whose sampled
    entropy reaches the gate threshold skip the codec and ship raw.
    """
    try:
        codec_id = _CODECS[codec]
    except KeyError:
        raise ValueError(f"codec must be one of {sorted(_CODECS)}, got {codec!r}")
    views: List[np.ndarray] = [
        np.frombuffer(section, dtype=np.uint8) for section in sections
    ]
    shard_size = SHARD_SIZE

    # Deterministic per-shard method selection; codec jobs collected for the
    # (optional) thread fan-out, keyed by their flat position in the frame.
    flat_methods: List[int] = []  # method per shard, (section, shard) order
    flat_shards: List[np.ndarray] = []  # shard view per shard, same order
    section_shards: List[int] = []  # shard count per section
    jobs: List[int] = []  # flat positions of CODED shards
    for view in views:
        n_shards = max(1, -(-view.size // shard_size))
        section_shards.append(n_shards)
        shards = (
            [view]
            if n_shards == 1
            else [
                view[start:start + shard_size]
                for start in range(0, view.size, shard_size)
            ]
        )
        for shard in shards:
            flat_shards.append(shard)
            if not shard.any():
                flat_methods.append(_METHOD_ZERO)
            elif (
                gate
                and shard.size >= _ENTROPY_MIN_BYTES
                and plane_entropy(shard) >= ENTROPY_GATE_BITS
            ):
                flat_methods.append(_METHOD_RAW)
            else:
                jobs.append(len(flat_methods))
                flat_methods.append(_METHOD_CODED)

    # Fan out only when the bytes entering the codec can repay a pool.
    coded_bytes = sum(flat_shards[position].size for position in jobs)
    worker_count = (
        min(resolve_threads(threads), len(jobs))
        if coded_bytes >= FANOUT_MIN_CODED_BYTES
        else 1
    )
    if worker_count > 1:
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            results = list(
                pool.map(
                    lambda position: _compress_shard(
                        codec_id, level, flat_shards[position]
                    ),
                    jobs,
                )
            )
    else:
        results = [
            _compress_shard(codec_id, level, flat_shards[position])
            for position in jobs
        ]
    stored: List = [b""] * len(flat_methods)
    body_size = 0
    for position, payload in zip(jobs, results):
        if len(payload) >= flat_shards[position].size:
            # Incompressible after all: ship raw.
            flat_methods[position] = _METHOD_RAW
        else:
            stored[position] = payload
            body_size += len(payload)
    for position, method in enumerate(flat_methods):
        if method == _METHOD_RAW:
            shard = flat_shards[position]
            stored[position] = memoryview(shard)
            body_size += shard.size

    # Assemble: header sizes are known up front, so the frame is built into
    # one preallocated buffer with a single pass and no intermediate joins.
    header_size = (
        _HEADER.size + _SECTION.size * len(views) + _SHARD.size * len(flat_methods)
    )
    out = bytearray(header_size + body_size)
    _HEADER.pack_into(
        out, 0, _MAGIC, SHARDED_FORMAT_VERSION, codec_id, level,
        shard_size, len(views),
    )
    pos = _HEADER.size
    for view, n_shards in zip(views, section_shards):
        _SECTION.pack_into(out, pos, view.size, n_shards)
        pos += _SECTION.size
    body_pos = header_size
    for method, payload in zip(flat_methods, stored):
        length = len(payload)
        _SHARD.pack_into(out, pos, method, length)
        pos += _SHARD.size
        if length:
            out[body_pos:body_pos + length] = payload
            body_pos += length
    return bytes(out)


def decompress_sections(payload) -> List[np.ndarray]:
    """Inverse of :func:`compress_sections`: writable uint8 section buffers."""
    payload = memoryview(payload)
    if len(payload) < _HEADER.size:
        raise ShardedFormatError("sharded frame shorter than its header")
    magic, version, codec_id, _level, shard_size, n_sections = _HEADER.unpack_from(
        payload, 0
    )
    if magic != _MAGIC:
        raise ShardedFormatError(f"bad sharded frame magic {magic!r}")
    if version != SHARDED_FORMAT_VERSION:
        raise ShardedFormatError(f"unsupported sharded frame version {version}")
    if codec_id not in (_CODEC_DEFLATE, _CODEC_LZMA):
        raise ShardedFormatError(f"unknown shard codec id {codec_id}")
    if shard_size <= 0:
        raise ShardedFormatError("sharded frame declares zero shard size")
    pos = _HEADER.size
    section_table = []
    for _ in range(n_sections):
        if pos + _SECTION.size > len(payload):
            raise ShardedFormatError("truncated sharded frame section table")
        orig_len, n_shards = _SECTION.unpack_from(payload, pos)
        pos += _SECTION.size
        section_table.append((orig_len, n_shards))
    shard_table = []
    for orig_len, n_shards in section_table:
        shards = []
        for _ in range(n_shards):
            if pos + _SHARD.size > len(payload):
                raise ShardedFormatError("truncated sharded frame shard table")
            shards.append(_SHARD.unpack_from(payload, pos))
            pos += _SHARD.size
        shard_table.append(shards)

    sections: List[np.ndarray] = []
    for (orig_len, _n_shards), shards in zip(section_table, shard_table):
        out = np.empty(orig_len, dtype=np.uint8)
        write_pos = 0
        for method, stored_len in shards:
            shard_len = min(shard_size, orig_len - write_pos) if orig_len else 0
            if method == _METHOD_ZERO:
                out[write_pos:write_pos + shard_len] = 0
            elif method == _METHOD_RAW:
                if stored_len != shard_len or pos + stored_len > len(payload):
                    raise ShardedFormatError("corrupt raw shard length")
                out[write_pos:write_pos + shard_len] = np.frombuffer(
                    payload[pos:pos + stored_len], dtype=np.uint8
                )
                pos += stored_len
            elif method == _METHOD_CODED:
                if pos + stored_len > len(payload):
                    raise ShardedFormatError("truncated coded shard")
                inflated = _decompress_shard(codec_id, payload[pos:pos + stored_len])
                if len(inflated) != shard_len:
                    raise ShardedFormatError("coded shard inflates to wrong length")
                out[write_pos:write_pos + shard_len] = np.frombuffer(
                    inflated, dtype=np.uint8
                )
                pos += stored_len
            else:
                raise ShardedFormatError(f"unknown shard method {method}")
            write_pos += shard_len
        if write_pos != orig_len:
            raise ShardedFormatError("sharded section does not cover its length")
        sections.append(out)
    if pos != len(payload):
        raise ShardedFormatError("trailing bytes after the final shard")
    return sections
