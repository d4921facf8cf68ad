"""Error-bounded lossy and lossless compressors for checkpoint payloads.

This subpackage stands in for the SZ, ZFP and Gzip compressors the paper
plugs into its checkpointing pipeline.  All compressors implement the same
:class:`~repro.compression.base.Compressor` interface so the checkpointing
layer and the experiment harness can treat "traditional" (identity),
"lossless" (DEFLATE) and "lossy" (SZ-like, ZFP-like) checkpointing
uniformly.

The lossy compressors guarantee their error bounds: for every element of the
decompressed array, the deviation from the original respects the requested
absolute / value-range-relative / pointwise-relative bound.  This guarantee is
what the paper's Theorems 2 and 3 rely on, and it is enforced by construction
and verified by the property-based tests.
"""

from repro.compression.base import (
    Compressor,
    CompressedBlob,
    CompressionRecord,
    register_compressor,
    make_compressor,
)
from repro.compression.codec import (
    FORMAT_VERSION,
    CodecFormatError,
    decode_frame,
    decode_signed,
    encode_frame,
    encode_signed,
)
from repro.compression.errorbounds import (
    BOUND_POLICIES,
    ErrorBound,
    ErrorBoundMode,
    ErrorBoundPolicy,
    FixedBoundPolicy,
    ResidualAdaptiveBoundPolicy,
    ValueRangeBoundPolicy,
    make_bound_policy,
)
from repro.compression.identity import IdentityCompressor
from repro.compression.lossless import ZlibCompressor
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor
from repro.compression.metrics import (
    max_abs_error,
    max_pointwise_relative_error,
    value_range_relative_error,
    psnr,
    evaluate_compressor,
    CompressorEvaluation,
)

__all__ = [
    "Compressor",
    "CompressedBlob",
    "CompressionRecord",
    "register_compressor",
    "make_compressor",
    "FORMAT_VERSION",
    "CodecFormatError",
    "encode_signed",
    "decode_signed",
    "encode_frame",
    "decode_frame",
    "ErrorBound",
    "ErrorBoundMode",
    "ErrorBoundPolicy",
    "FixedBoundPolicy",
    "ValueRangeBoundPolicy",
    "ResidualAdaptiveBoundPolicy",
    "BOUND_POLICIES",
    "make_bound_policy",
    "IdentityCompressor",
    "ZlibCompressor",
    "SZCompressor",
    "ZFPCompressor",
    "max_abs_error",
    "max_pointwise_relative_error",
    "value_range_relative_error",
    "psnr",
    "evaluate_compressor",
    "CompressorEvaluation",
]
