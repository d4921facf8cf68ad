"""Lossless compressor — the paper's "lossless checkpointing" baseline.

The paper uses Gzip; both Gzip and SZ's own lossless back end are DEFLATE
based, so :class:`ZlibCompressor` is the faithful stand-in.  It reproduces
the input bit-for-bit.

Since payload format v2 the encoder runs the byte-shuffle filter
(:func:`~repro.compression.filters.byte_shuffle`) and ships each byte plane
through the sharded, entropy-gated frame of
:mod:`repro.compression.sharded`: near-constant exponent planes DEFLATE to
almost nothing while incompressible mantissa planes skip the codec
entirely — better ratio *and* several times the encode speed of the seed's
single ``zlib.compress(level=6)`` over the interleaved buffer.  Blobs
stamp ``format_version: 2`` plus the plane count in ``meta["shuffle"]``;
a blob with any other version (the seed-era bare DEFLATE stream carries
none) is rejected with a ``ValueError`` before parsing a byte.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedBlob, Compressor, register_compressor
from repro.compression.filters import assemble_planes, byte_shuffle
from repro.compression.sharded import (
    SHARDED_FORMAT_VERSION,
    compress_sections,
    decompress_sections,
)

__all__ = ["ZlibCompressor"]


class ZlibCompressor(Compressor):
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

    def __init__(self, level: int = 2) -> None:
        super().__init__()
        level = int(level)
        if not (0 <= level <= 9):
            raise ValueError(f"level must be in [0, 9], got {level}")
        self.level = level

    def _compress_array(self, data: np.ndarray) -> CompressedBlob:
        planes = byte_shuffle(data)
        payload = compress_sections(list(planes), level=self.level)
        return CompressedBlob(
            payload=payload,
            shape=tuple(data.shape),
            dtype=np.dtype(data.dtype).str,
            compressor=self.name,
            meta={
                "level": self.level,
                "format_version": SHARDED_FORMAT_VERSION,
                "shuffle": int(planes.shape[0]),
            },
        )

    def _decompress_array(self, blob: CompressedBlob) -> np.ndarray:
        blob.check_format_version(SHARDED_FORMAT_VERSION)
        planes = decompress_sections(blob.payload, max_bytes=blob.original_nbytes)
        return assemble_planes(planes, blob.dtype, blob.shape)


register_compressor("zlib", ZlibCompressor)
register_compressor("gzip", ZlibCompressor)
