"""Checkpoint payload (de)serialization.

A checkpoint is a set of named entries, each either a compressed array
(:class:`~repro.compression.base.CompressedBlob`) or an exactly-stored scalar
or small array (iteration counters, ``rho``...).  The serializer packs these
into one self-describing byte string so any
:class:`~repro.checkpoint.store.CheckpointStore` backend can persist it
opaquely — the same way FTI writes one checkpoint file per process.

Wire layout (little-endian)::

    magic "RPCK0001" | i64 index_len | JSON index | entry bodies

The serializer builds the JSON index once, sizes the output exactly, and
writes magic + index + bodies into a single preallocated buffer — no
``BytesIO`` staging copy.  :meth:`CheckpointPayload.nbytes` reports the
*true* serialized size (magic + index + bodies) by building the same index,
so it always equals ``len(serialize_checkpoint(payload))``.

Deserialization is zero-copy where safe: blob payloads come back as
``memoryview`` slices of the input buffer (every decoder accepts buffer
objects) and raw arrays as read-only ``np.frombuffer`` views.  Consumers
that need to mutate an array entry must copy it first; the pipeline's
restore path does exactly that.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.compression.base import CompressedBlob

__all__ = ["CheckpointPayload", "serialize_checkpoint", "deserialize_checkpoint"]

_MAGIC = b"RPCK0001"
_INDEX_LEN = struct.Struct("<q")
_PREFIX = len(_MAGIC) + _INDEX_LEN.size

Entry = Union[CompressedBlob, np.ndarray, float, int]


@dataclass
class CheckpointPayload:
    """In-memory representation of one checkpoint before/after serialization."""

    entries: Dict[str, Entry] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)


def _entry_header(value: Entry) -> Dict[str, object]:
    if isinstance(value, CompressedBlob):
        return {
            "kind": "blob",
            "shape": list(value.shape),
            "dtype": value.dtype,
            "compressor": value.compressor,
            "meta": value.meta,
            "nbytes": value.nbytes,
        }
    if isinstance(value, np.ndarray):
        return {
            "kind": "array",
            "shape": list(value.shape),
            "dtype": np.dtype(value.dtype).str,
            "nbytes": int(value.nbytes),
        }
    if isinstance(value, (int, np.integer)):
        return {"kind": "int", "value": int(value)}
    if isinstance(value, (float, np.floating)):
        return {"kind": "float", "value": float(value)}
    raise TypeError(f"unsupported checkpoint entry type: {type(value)!r}")


def _build_index(payload: CheckpointPayload) -> Tuple[bytes, List[memoryview], int]:
    """The serialized JSON index plus the body chunks it points into.

    Single source of truth for the wire layout: both :func:`serialize_checkpoint`
    and :meth:`CheckpointPayload.nbytes` are thin wrappers over this.
    """
    headers: Dict[str, Dict[str, object]] = {}
    chunks: List[memoryview] = []
    body_size = 0
    for name, value in payload.entries.items():
        header = _entry_header(value)
        if header["kind"] == "blob":
            header["offset"] = body_size
            chunk = memoryview(value.payload)  # type: ignore[union-attr]
        elif header["kind"] == "array":
            header["offset"] = body_size
            chunk = memoryview(np.ascontiguousarray(value)).cast("B")
        else:
            headers[name] = header
            continue
        chunks.append(chunk)
        body_size += chunk.nbytes
        headers[name] = header
    index = json.dumps({"entries": headers, "meta": payload.meta}).encode("utf-8")
    return index, chunks, body_size


def serialize_checkpoint(payload: CheckpointPayload) -> bytes:
    """Pack a :class:`CheckpointPayload` into a single byte string."""
    index, chunks, body_size = _build_index(payload)
    out = bytearray(_PREFIX + len(index) + body_size)
    out[: len(_MAGIC)] = _MAGIC
    _INDEX_LEN.pack_into(out, len(_MAGIC), len(index))
    pos = _PREFIX
    out[pos:pos + len(index)] = index
    pos += len(index)
    for chunk in chunks:
        out[pos:pos + chunk.nbytes] = chunk
        pos += chunk.nbytes
    return bytes(out)


def deserialize_checkpoint(raw) -> CheckpointPayload:
    """Inverse of :func:`serialize_checkpoint`.

    Blob payloads are returned as ``memoryview`` slices of ``raw`` and array
    entries as read-only ``np.frombuffer`` views — no body copies.  Raises
    ``ValueError`` on a foreign or truncated buffer.
    """
    view = memoryview(raw)
    if bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a repro checkpoint payload (bad magic)")
    if len(view) < _PREFIX:
        raise ValueError("truncated checkpoint payload")
    (index_len,) = _INDEX_LEN.unpack_from(view, len(_MAGIC))
    if index_len < 0 or _PREFIX + index_len > len(view):
        raise ValueError("truncated checkpoint payload")
    index = json.loads(bytes(view[_PREFIX:_PREFIX + index_len]).decode("utf-8"))
    body = view[_PREFIX + index_len:]

    entries: Dict[str, Entry] = {}
    for name, header in index["entries"].items():
        kind = header["kind"]
        if kind in ("blob", "array"):
            start = int(header["offset"])
            stop = start + int(header["nbytes"])
            if start < 0 or stop > len(body):
                raise ValueError("truncated checkpoint payload")
            if kind == "blob":
                entries[name] = CompressedBlob(
                    payload=body[start:stop],
                    shape=tuple(int(s) for s in header["shape"]),
                    dtype=header["dtype"],
                    compressor=header["compressor"],
                    meta=dict(header["meta"]),
                )
            else:
                arr = np.frombuffer(body[start:stop], dtype=np.dtype(header["dtype"]))
                entries[name] = arr.reshape([int(s) for s in header["shape"]])
        elif kind == "int":
            entries[name] = int(header["value"])
        elif kind == "float":
            entries[name] = float(header["value"])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown checkpoint entry kind {kind!r}")
    return CheckpointPayload(entries=entries, meta=dict(index.get("meta", {})))
