"""Lossless compressors — the paper's "lossless checkpointing" baseline.

The paper uses Gzip; both Gzip and SZ's own lossless back end are DEFLATE
based, so :class:`ZlibCompressor` is the faithful stand-in.  An LZMA variant
is included as a stronger/slower lossless point for the ablation benchmarks.
Both reproduce the input bit-for-bit.

Since payload format v2 the encoders run the byte-shuffle filter
(:func:`~repro.compression.filters.byte_shuffle`) and ship each byte plane
through the sharded, entropy-gated frame of
:mod:`repro.compression.sharded`: near-constant exponent planes DEFLATE to
almost nothing while incompressible mantissa planes skip the codec
entirely — better ratio *and* several times the encode speed of the seed's
single ``zlib.compress(level=6)`` over the interleaved buffer.  Blobs
stamp ``format_version: 2`` plus the plane count in ``meta["shuffle"]``;
a blob with any other version (the seed-era bare DEFLATE/LZMA stream
carries none) is rejected with a ``ValueError`` before parsing a byte.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.compression.base import CompressedBlob, Compressor, register_compressor
from repro.compression.filters import assemble_planes, byte_shuffle
from repro.compression.sharded import (
    SHARDED_FORMAT_VERSION,
    compress_sections,
    decompress_sections,
)

__all__ = ["ZlibCompressor", "LzmaCompressor"]


class _ShuffledShardedCompressor(Compressor):
    """Shared v2 encode/decode: byte-shuffle, then one sharded frame.

    Subclasses pick the shard codec (``deflate``/``lzma``) and its effort
    level; ``threads`` overrides the shard worker count for this instance
    (``None`` defers to ``REPRO_COMPRESS_THREADS``/CPU count at call time).
    """

    _codec = "deflate"

    def __init__(self, *, threads: Optional[int] = None) -> None:
        super().__init__()
        self.threads = None if threads is None else max(1, int(threads))

    def _codec_level(self) -> int:
        raise NotImplementedError

    def _compress_array(self, data: np.ndarray) -> CompressedBlob:
        planes = byte_shuffle(data)
        payload = compress_sections(
            list(planes),
            codec=self._codec,
            level=self._codec_level(),
            threads=self.threads,
        )
        return CompressedBlob(
            payload=payload,
            shape=tuple(data.shape),
            dtype=np.dtype(data.dtype).str,
            compressor=self.name,
            meta=self._meta() | {
                "format_version": SHARDED_FORMAT_VERSION,
                "shuffle": int(planes.shape[0]),
            },
        )

    def _meta(self) -> dict:
        return {}

    def _decompress_array(self, blob: CompressedBlob) -> np.ndarray:
        blob.check_format_version(SHARDED_FORMAT_VERSION)
        planes = decompress_sections(blob.payload)
        return assemble_planes(planes, blob.dtype, blob.shape)


class ZlibCompressor(_ShuffledShardedCompressor):
    """DEFLATE (zlib/gzip-family) lossless compressor.

    The default level is 2 since payload format v2: after the byte shuffle
    the shards DEFLATE actually codes are either near-constant (where level
    2 already finds the runs) or semi-random (where level 6's deeper match
    search buys <1% for 3-4x the time — measured 365us vs 29us on a
    low-entropy solver plane).  Pass ``level=`` explicitly to trade speed
    for the last few hundred bytes.
    """

    name = "zlib"
    lossless = True
    _codec = "deflate"

    def __init__(self, level: int = 2, *, threads: Optional[int] = None) -> None:
        super().__init__(threads=threads)
        level = int(level)
        if not (0 <= level <= 9):
            raise ValueError(f"level must be in [0, 9], got {level}")
        self.level = level

    def _codec_level(self) -> int:
        return self.level

    def _meta(self) -> dict:
        return {"level": self.level}


class LzmaCompressor(_ShuffledShardedCompressor):
    """LZMA (xz) lossless compressor — slower, usually higher ratio than zlib."""

    name = "lzma"
    lossless = True
    _codec = "lzma"

    def __init__(self, preset: int = 1, *, threads: Optional[int] = None) -> None:
        super().__init__(threads=threads)
        preset = int(preset)
        if not (0 <= preset <= 9):
            raise ValueError(f"preset must be in [0, 9], got {preset}")
        self.preset = preset

    def _codec_level(self) -> int:
        return self.preset

    def _meta(self) -> dict:
        return {"preset": self.preset}


register_compressor("zlib", ZlibCompressor)
register_compressor("gzip", ZlibCompressor)
register_compressor("lzma", LzmaCompressor)
