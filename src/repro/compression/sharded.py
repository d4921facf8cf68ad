"""Sharded, entropy-gated compression frames (payload format v2, ``RSF2``).

One frame transports an ordered list of byte *sections* (byte planes, code
planes, masks, headers — the producer fixes their meaning, exactly like the
v1 ``RBCF`` frame).  Each section is split into fixed :data:`SHARD_SIZE`
shards and every shard is stored under the cheapest of three methods:

* **zero** — the shard is all zero bytes; it costs 0 payload bytes,
* **raw** — the shard's histogram entropy meets
  :data:`~repro.compression.filters.ENTROPY_GATE_BITS` (or DEFLATE failed
  to shrink it); stored verbatim,
* **deflate** — the shard as one zlib stream.

Shards are compressed in order on the calling thread.  The framing is
deterministic by construction: method selection is a pure per-shard
function, shard payloads are concatenated in (section, shard index) order,
and the header is derived only from sizes.

Frame layout (all little-endian; normative spec in
``docs/payload-format.md``):

```
magic "RSF2" | u16 version=2 | u8 codec=2 | u8 level | u32 shard_size | u32 n_sections
per section:  u64 orig_len | u32 n_shards
per shard:    u8 method | u32 stored_len        (sections in order)
shard payloads, concatenated in (section, shard) order
```

The reader accepts only what the writer produces: codec 2 (DEFLATE), a
``shard_size`` of :data:`SHARD_SIZE` and, per section, exactly
``max(1, ceil(orig_len / shard_size))`` shards.  All three are checked
before a section buffer is allocated.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence

import numpy as np

from repro.compression.filters import ENTROPY_GATE_BITS, plane_entropy

__all__ = [
    "SHARDED_FORMAT_VERSION",
    "SHARD_SIZE",
    "ShardedFormatError",
    "resolve_threads",
    "compress_sections",
    "decompress_sections",
]

#: Stamped into ``CompressedBlob.meta["format_version"]`` by the compressors
#: (all of which write RSF2 frames); their readers accept no other version.
SHARDED_FORMAT_VERSION = 2

#: Fixed shard size.  Large enough that per-shard overhead (5 bytes + one
#: DEFLATE stream header) is noise, small enough that a zero or
#: incompressible stretch of a multi-megabyte section skips the codec.
SHARD_SIZE = 1 << 20

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


class ShardedFormatError(ValueError):
    """A payload violates the RSF2 frame format."""


def resolve_threads() -> int:
    """Always 1: shards are compressed on the calling thread.

    Only the benchmark's host fingerprint (``benchmarks/e2e/hostinfo.py``)
    reads this.
    """
    return 1


def _shard_count(orig_len: int, shard_size: int) -> int:
    return max(1, -(-orig_len // shard_size))


def compress_sections(sections: Sequence, *, level: int = 6) -> bytes:
    """Pack byte sections into one RSF2 frame.

    ``sections`` holds contiguous byte buffers (``bytes``, ``memoryview`` or
    uint8-viewable arrays).  Shards whose sampled entropy reaches the gate
    threshold skip DEFLATE and ship raw.
    """
    views: List[np.ndarray] = [
        np.frombuffer(section, dtype=np.uint8) for section in sections
    ]
    shard_size = SHARD_SIZE

    methods: List[int] = []  # method per shard, (section, shard) order
    stored: List = []  # stored bytes per shard, same order
    for view in views:
        for start in range(0, max(1, view.size), shard_size):
            shard = view[start:start + shard_size]
            if not shard.any():
                methods.append(_METHOD_ZERO)
                stored.append(b"")
                continue
            if shard.size < _ENTROPY_MIN_BYTES or plane_entropy(shard) < ENTROPY_GATE_BITS:
                payload = zlib.compress(shard, level)
                if len(payload) < shard.size:
                    methods.append(_METHOD_CODED)
                    stored.append(payload)
                    continue
            # Entropy-gated, or incompressible after all: ship raw.
            methods.append(_METHOD_RAW)
            stored.append(memoryview(shard))

    # Assemble: header sizes are known up front, so the frame is built into
    # one preallocated buffer with a single pass and no intermediate joins.
    header_size = (
        _HEADER.size + _SECTION.size * len(views) + _SHARD.size * len(methods)
    )
    out = bytearray(header_size + sum(len(payload) for payload in stored))
    _HEADER.pack_into(
        out, 0, _MAGIC, SHARDED_FORMAT_VERSION, _CODEC_DEFLATE, level,
        shard_size, len(views),
    )
    pos = _HEADER.size
    for view in views:
        _SECTION.pack_into(out, pos, view.size, _shard_count(view.size, shard_size))
        pos += _SECTION.size
    body_pos = header_size
    for method, payload in zip(methods, stored):
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
    if codec_id != _CODEC_DEFLATE:
        raise ShardedFormatError(f"unknown shard codec id {codec_id}")
    if shard_size != SHARD_SIZE:
        raise ShardedFormatError(
            f"sharded frame declares shard size {shard_size}, not {SHARD_SIZE}"
        )
    pos = _HEADER.size
    section_table = []
    for _ in range(n_sections):
        if pos + _SECTION.size > len(payload):
            raise ShardedFormatError("truncated sharded frame section table")
        orig_len, n_shards = _SECTION.unpack_from(payload, pos)
        pos += _SECTION.size
        if n_shards != _shard_count(orig_len, shard_size):
            raise ShardedFormatError(
                f"sharded section of {orig_len} bytes declares {n_shards} shards"
            )
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
            shard_len = min(shard_size, orig_len - write_pos)
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
                inflated = zlib.decompress(payload[pos:pos + stored_len])
                if len(inflated) != shard_len:
                    raise ShardedFormatError("coded shard inflates to wrong length")
                out[write_pos:write_pos + shard_len] = np.frombuffer(
                    inflated, dtype=np.uint8
                )
                pos += stored_len
            else:
                raise ShardedFormatError(f"unknown shard method {method}")
            write_pos += shard_len
        sections.append(out)
    if pos != len(payload):
        raise ShardedFormatError("trailing bytes after the final shard")
    return sections
