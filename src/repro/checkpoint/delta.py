"""Bitwise delta encoding of float64 vectors against a base (``delta64``).

Successive iterates of a converging solver are *close*: most of the
mantissa bits of ``x_k`` agree with ``x_{k-1}``.  A delta blob stores,
instead of a full compressed vector, the **residual of the raw IEEE-754 bit
patterns** against a base array:

* both arrays are viewed as little-endian ``uint64`` words,
* the wrapping word difference is zigzag-mapped (small signed residuals get
  small codes) and packed through the v1 block codec
  (:mod:`repro.compression.codec` — per-block minimal widths, escape channel
  for rough regions, one DEFLATE pass),
* decoding adds the residual back onto the base words, so reconstruction is
  **bitwise exact given the same base**.

No checkpoint path writes these blobs: :class:`~repro.checkpoint.pipeline.
CheckpointPipeline` ships full payloads only and refuses a ``delta64`` entry
on restore.  The codec stays, with its exactness and damage tests, until the
change that deletes it together with the v1 block codec.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.base import CompressedBlob
from repro.compression.codec import decode_frame, decode_signed, encode_frame, encode_signed

__all__ = ["DELTA_COMPRESSOR", "DELTA_WIDTH_CAP", "delta_encode", "delta_decode", "is_delta_blob"]

#: Compressor name stamped into delta blobs (they are decoded by
#: :func:`delta_decode` with an explicit base, never via ``make_compressor``).
DELTA_COMPRESSOR = "delta64"

#: Escape-channel cap for delta streams.  Quantization codes are narrow, so
#: the codec's default 32-bit cap suits them — but a float64 bit residual at
#: relative drift ``d`` is ``~52 + log2(d)`` bits wide (35-45 bits for
#: typical inter-checkpoint drift), and escaping all of them would cost 16
#: bytes each.  A 56-bit cap lets whole blocks pack at their natural width
#: (still beating the raw 64 bits) while true outliers keep escaping.
DELTA_WIDTH_CAP = 56


def _as_words(data: np.ndarray) -> np.ndarray:
    """View a float64/int64 array as its raw uint64 bit patterns."""
    arr = np.ascontiguousarray(data)
    if arr.dtype.itemsize != 8:
        raise ValueError(
            f"delta encoding needs 8-byte elements, got dtype {arr.dtype}"
        )
    return arr.reshape(-1).view(np.uint64)


def delta_encode(
    value: np.ndarray,
    base: np.ndarray,
    *,
    base_id: int,
    inner: Optional[str] = None,
    meta: Optional[dict] = None,
) -> CompressedBlob:
    """Encode ``value`` as a bitwise residual against ``base``.

    ``base`` must be the reconstruction a restorer will hold for checkpoint
    ``base_id`` (for exact variables the committed value itself; for lossy
    variables the committed payload's decompressed reconstruction).
    ``inner`` optionally names the compressor whose output the delta rides on
    (carried for reporting only).
    """
    value = np.ascontiguousarray(value, dtype=np.float64)
    base = np.ascontiguousarray(base, dtype=np.float64)
    if value.shape != base.shape:
        raise ValueError(
            f"delta base shape {base.shape} does not match value shape {value.shape}"
        )
    residual = (_as_words(value) - _as_words(base)).view(np.int64)
    payload = encode_frame([encode_signed(residual, width_cap=DELTA_WIDTH_CAP)])
    # Delta payloads are the block-codec frame's one writer (RBCF v1), and
    # the golden reports pin their bytes.  No stored delta outlives that
    # writer: a chain is only restorable by the pipeline instance that
    # holds its bases.
    blob_meta = {"base_id": int(base_id), "format_version": 1}
    if inner is not None:
        blob_meta["inner"] = str(inner)
    if meta:
        blob_meta.update(meta)
    return CompressedBlob(
        payload=payload,
        shape=tuple(value.shape),
        dtype=str(value.dtype),
        compressor=DELTA_COMPRESSOR,
        meta=blob_meta,
    )


def delta_decode(blob: CompressedBlob, base: np.ndarray) -> np.ndarray:
    """Reconstruct the array stored in a delta blob given its base."""
    if blob.compressor != DELTA_COMPRESSOR:
        raise ValueError(
            f"blob was produced by {blob.compressor!r}, not {DELTA_COMPRESSOR!r}"
        )
    base = np.ascontiguousarray(base, dtype=np.float64)
    expected = 1
    for dim in blob.shape:
        expected *= int(dim)
    if base.size != expected:
        raise ValueError(
            f"delta base has {base.size} elements, blob stores {expected}"
        )
    (section,) = decode_frame(blob.payload)
    residual = decode_signed(section)
    if residual.size != expected:
        raise ValueError(
            f"delta stream has {residual.size} residuals, blob declares {expected}"
        )
    # ``words`` is freshly allocated by the addition, so the reshaped float64
    # view already owns its memory — no defensive copy needed.
    words = _as_words(base) + residual.view(np.uint64)
    return words.view(np.float64).reshape(blob.shape)


def is_delta_blob(blob: CompressedBlob) -> bool:
    """Whether ``blob`` is an incremental (base-referencing) payload entry."""
    return blob.compressor == DELTA_COMPRESSOR
