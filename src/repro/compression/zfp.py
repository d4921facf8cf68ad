"""ZFP-like transform-based, error-bounded lossy compressor.

ZFP (Lindstrom, 2014) partitions data into fixed-size blocks, applies a
near-orthogonal block transform and encodes the transform coefficients by bit
planes.  This reproduction keeps the same structure at reduced complexity:

1. split the flattened array into blocks of 64 values (the 4x4x4 block size
   of real ZFP),
2. apply an orthonormal DCT-II per block (so coefficient quantization error
   maps to reconstruction error with a known ``sqrt(block)`` factor),
3. quantize coefficients with an error-bounded step chosen so the
   *reconstruction* error respects the requested absolute bound,
4. encode the coefficient codes with the versioned block codec
   (:mod:`repro.compression.codec`): per-block minimal bit widths, an
   outlier escape channel, and exactly one DEFLATE pass per payload.

Pointwise-relative bounds are supported through the same logarithmic
transform the SZ-like compressor uses, so the checkpointing layer can swap
SZ-like and ZFP-like compressors freely (the compressor-family ablation in
``benchmarks/test_bench_ablation_compressors.py``).  Payloads carry
``format_version`` in their metadata; pre-codec payloads (no
``format_version``) are rejected with a ``ValueError``.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np
from scipy.fft import dct, idct

from repro.compression.base import CompressedBlob, Compressor, register_compressor
from repro.compression.codec import (
    FORMAT_VERSION,
    decode_frame,
    decode_signed,
    encode_frame,
    encode_signed,
)
from repro.compression.errorbounds import ErrorBound, ErrorBoundMode
from repro.compression.quantization import QuantizationOverflow, quantize_absolute
from repro.compression.relative import (
    PointwiseRelativeTransform,
    pw_rel_sections,
    reconstruct_from_masks,
)

__all__ = ["ZFPCompressor"]


class ZFPCompressor(Compressor):
    """Block-transform lossy compressor with a guaranteed error bound.

    Parameters
    ----------
    error_bound:
        :class:`ErrorBound` or a float interpreted as a pointwise relative
        bound (for symmetry with :class:`~repro.compression.sz.SZCompressor`).
    block_size:
        Number of values per transform block (default 64 = 4x4x4).
    zlib_level:
        DEFLATE effort for the (single) entropy stage.
    """

    name = "zfp"
    lossless = False

    def __init__(
        self,
        error_bound: "ErrorBound | float" = 1e-4,
        *,
        block_size: int = 64,
        zlib_level: int = 6,
    ) -> None:
        super().__init__()
        if not isinstance(error_bound, ErrorBound):
            error_bound = ErrorBound.pointwise_relative(float(error_bound))
        block_size = int(block_size)
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self.error_bound = error_bound
        self.block_size = block_size
        self.zlib_level = int(zlib_level)

    def with_error_bound(self, error_bound: "ErrorBound | float") -> "ZFPCompressor":
        """Return a copy of this compressor with a different error bound."""
        return ZFPCompressor(
            error_bound, block_size=self.block_size, zlib_level=self.zlib_level
        )

    # ------------------------------------------------------------------
    def _compress_array(self, data: np.ndarray) -> CompressedBlob:
        flat = np.ascontiguousarray(data, dtype=np.float64).reshape(-1)
        meta = {
            "error_bound": self.error_bound.describe(),
            "block_size": self.block_size,
            "format_version": FORMAT_VERSION,
        }
        if self.error_bound.mode is ErrorBoundMode.POINTWISE_RELATIVE:
            transform = PointwiseRelativeTransform.forward(flat, self.error_bound.value)
            inner = self._transform_sections(transform.log_values, transform.log_bound)
            if inner is None:
                payload = self._raw_fallback(flat)
                meta["scheme"] = "raw"
            else:
                sections = pw_rel_sections(transform, inner, flat.size)
                payload = encode_frame(sections, level=self.zlib_level)
                meta["scheme"] = "pw_rel"
        else:
            bound = self.error_bound.absolute_for(flat)
            sections = self._transform_sections(flat, bound)
            if sections is None:
                payload = self._raw_fallback(flat)
                meta["scheme"] = "raw"
            else:
                payload = encode_frame(sections, level=self.zlib_level)
                meta["scheme"] = "zfp"
        return CompressedBlob(
            payload=payload,
            shape=tuple(data.shape),
            dtype=np.dtype(data.dtype).str,
            compressor=self.name,
            meta=meta,
        )

    def _decompress_array(self, blob: CompressedBlob) -> np.ndarray:
        scheme = blob.meta.get("scheme", "abs")
        if scheme == "raw":
            flat = np.frombuffer(zlib.decompress(blob.payload), dtype=np.float64).copy()
        elif blob.format_version >= 1:
            sections = decode_frame(blob.payload)
            if scheme == "pw_rel":
                count = int(np.frombuffer(sections[0], dtype=np.int64)[0])
                log_recon = self._decode_transform_sections(sections[1:4])
                flat = reconstruct_from_masks(log_recon, sections[4], sections[5], count)
            else:
                flat = self._decode_transform_sections(sections)
        else:
            raise ValueError("unsupported payload format version 0")
        return flat.astype(np.dtype(blob.dtype), copy=False).reshape(blob.shape)

    # -- block transform core -------------------------------------------
    def _transform_sections(
        self, values: np.ndarray, bound: float
    ) -> Optional[List[bytes]]:
        """DCT + quantize ``values``; None when the bound needs raw fallback."""
        n = values.size
        block = self.block_size
        pad = (-n) % block
        padded = np.pad(values, (0, pad), mode="edge") if pad else values
        blocks = padded.reshape(-1, block)
        coeffs = dct(blocks, axis=1, norm="ortho")
        # Orthonormal transform: an l-inf coefficient error of eps gives an
        # l-2 (hence l-inf) reconstruction error of at most sqrt(block)*eps,
        # so quantize with bound / sqrt(block).
        coeff_bound = bound / np.sqrt(block)
        if coeff_bound <= 0.0:  # resolved bound underflowed (denormal-scale data)
            return None
        try:
            quantized = quantize_absolute(coeffs.reshape(-1), coeff_bound)
        except QuantizationOverflow:
            return None
        return [
            np.asarray([quantized.quantum], dtype=np.float64).tobytes(),
            np.asarray([n, block], dtype=np.int64).tobytes(),
            encode_signed(quantized.codes),
        ]

    def _decode_transform_sections(self, sections: List[bytes]) -> np.ndarray:
        header, sizes, packed = sections
        quantum = float(np.frombuffer(header, dtype=np.float64)[0])
        n, block = (int(v) for v in np.frombuffer(sizes, dtype=np.int64))
        codes = decode_signed(packed)
        coeffs = codes.astype(np.float64).reshape(-1, block) * quantum
        values = idct(coeffs, axis=1, norm="ortho").reshape(-1)
        return values[:n]

    def _raw_fallback(self, flat: np.ndarray) -> bytes:
        return zlib.compress(flat.astype(np.float64).tobytes(), self.zlib_level)


def _make_zfp(**kwargs) -> ZFPCompressor:
    return ZFPCompressor(**kwargs)


register_compressor("zfp", _make_zfp)
