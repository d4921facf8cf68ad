"""Payload-format regression tests.

Two format guarantees are pinned here:

1. **No nested DEFLATE.**  The pre-codec SZ/ZFP pointwise-relative paths
   DEFLATEd an already-DEFLATEd inner section — wasted CPU, worse ratio.
   Payloads must contain exactly one entropy stage: each shard of the v2
   frame is DEFLATEd at most once (raw-gated planes not at all) and none of
   the inflated sections is itself a zlib stream.

2. **Pre-codec (v0) payloads are rejected, not misread.**  Blobs without
   ``format_version`` in their metadata predate the block codec (global-width
   packing, nested DEFLATE); no fixture or store holds one any more, so
   SZ/ZFP refuse them with a typed ``ValueError`` instead of decoding.  The
   old encoders are reconstructed here, independently of the source tree,
   so the rejected inputs are well-formed v0 blobs (and the ratio baseline of
   guarantee 1).
"""

import zlib

import numpy as np
import pytest

from repro.compression.base import CompressedBlob
from repro.compression.encoding import pack_sections, pack_unsigned, zigzag_encode
from repro.compression.errorbounds import ErrorBound
from repro.compression.quantization import quantize_absolute
from repro.compression.relative import PointwiseRelativeTransform
from repro.compression.sharded import SHARDED_FORMAT_VERSION, decompress_sections
from repro.compression.sz import SZCompressor, _predict_codes
from repro.compression.zfp import ZFPCompressor

from scipy.fft import dct


def _assert_sections_not_deflate(sections):
    for index, section in enumerate(sections):
        if len(section) < 8:
            continue
        with pytest.raises(zlib.error):
            zlib.decompress(section)
            pytest.fail(f"section {index} is a nested zlib stream")


class TestNoNestedDeflate:
    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_pw_rel_single_entropy_stage(self, smooth_vector, predictor):
        # SZ writes sharded v2 frames: the shard layer is the only entropy
        # stage, so the inflated sections must not be zlib streams themselves.
        blob = SZCompressor(1e-4, predictor=predictor).compress(smooth_vector)
        assert blob.meta["scheme"] == "pw_rel"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_sz_abs_single_entropy_stage(self, smooth_vector):
        blob = SZCompressor(ErrorBound.absolute(1e-5)).compress(smooth_vector)
        assert blob.meta["scheme"] == "abs"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_zfp_pw_rel_single_entropy_stage(self, smooth_vector):
        blob = ZFPCompressor(1e-4).compress(smooth_vector)
        assert blob.meta["scheme"] == "pw_rel"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_zfp_abs_single_entropy_stage(self, smooth_vector):
        blob = ZFPCompressor(ErrorBound.absolute(1e-5)).compress(smooth_vector)
        assert blob.meta["scheme"] == "zfp"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_pw_rel_payload_shrinks_vs_legacy(self, smooth_vector):
        # Dropping the nested DEFLATE (plus blockwise widths) must not cost
        # ratio on the bread-and-butter workload.
        new = SZCompressor(1e-4).compress(smooth_vector)
        legacy = _legacy_sz_pw_rel_blob(smooth_vector, 1e-4)
        assert new.nbytes <= legacy.nbytes * 1.02


# ----------------------------------------------------------------------
# legacy (format version 0) payload builders — mirror the old encoders
# ----------------------------------------------------------------------
def _legacy_quantized_section(values, bound, order, level=6):
    quantized = quantize_absolute(values, bound)
    residuals = _predict_codes(quantized.codes, order)
    packed = pack_unsigned(zigzag_encode(residuals))
    header = np.asarray([quantized.quantum], dtype=np.float64).tobytes()
    order_bytes = np.asarray([order], dtype=np.int64).tobytes()
    return zlib.compress(pack_sections([header, order_bytes, packed]), level)


def _legacy_sz_abs_blob(data, bound, predictor="lorenzo"):
    flat = np.asarray(data, dtype=np.float64).reshape(-1)
    order = 1 if predictor == "lorenzo" else 2
    payload = _legacy_quantized_section(flat, bound, order)
    return CompressedBlob(
        payload=payload,
        shape=np.asarray(data).shape,
        dtype=np.asarray(data).dtype.str,
        compressor="sz",
        meta={"error_bound": f"abs={bound:g}", "predictor": predictor, "scheme": "abs"},
    )


def _legacy_sz_pw_rel_blob(data, eb, predictor="lorenzo"):
    flat = np.asarray(data, dtype=np.float64).reshape(-1)
    transform = PointwiseRelativeTransform.forward(flat, eb)
    order = 1 if predictor == "lorenzo" else 2
    log_section = _legacy_quantized_section(transform.log_values, transform.log_bound, order)
    neg = np.packbits(transform.negative_mask.astype(np.uint8)).tobytes()
    zero = np.packbits(transform.zero_mask.astype(np.uint8)).tobytes()
    count = np.asarray([flat.size], dtype=np.int64).tobytes()
    payload = zlib.compress(pack_sections([count, log_section, neg, zero]), 6)
    return CompressedBlob(
        payload=payload,
        shape=np.asarray(data).shape,
        dtype=np.asarray(data).dtype.str,
        compressor="sz",
        meta={"error_bound": f"pw_rel={eb:g}", "predictor": predictor, "scheme": "pw_rel"},
    )


def _legacy_zfp_values_section(values, bound, block, level=6):
    n = values.size
    pad = (-n) % block
    padded = np.pad(values, (0, pad), mode="edge") if pad else values
    coeffs = dct(padded.reshape(-1, block), axis=1, norm="ortho")
    quantized = quantize_absolute(coeffs.reshape(-1), bound / np.sqrt(block))
    packed = pack_unsigned(zigzag_encode(quantized.codes))
    header = np.asarray([quantized.quantum], dtype=np.float64).tobytes()
    sizes = np.asarray([n, block], dtype=np.int64).tobytes()
    return zlib.compress(pack_sections([header, sizes, packed]), level)


def _legacy_zfp_blob(data, bound, *, pw_rel, block=64):
    flat = np.asarray(data, dtype=np.float64).reshape(-1)
    if pw_rel:
        transform = PointwiseRelativeTransform.forward(flat, bound)
        inner = _legacy_zfp_values_section(transform.log_values, transform.log_bound, block)
        neg = np.packbits(transform.negative_mask.astype(np.uint8)).tobytes()
        zero = np.packbits(transform.zero_mask.astype(np.uint8)).tobytes()
        count = np.asarray([flat.size], dtype=np.int64).tobytes()
        payload = zlib.compress(pack_sections([count, inner, neg, zero]), 6)
        scheme = "pw_rel"
    else:
        payload = _legacy_zfp_values_section(flat, bound, block)
        scheme = "zfp"
    return CompressedBlob(
        payload=payload,
        shape=np.asarray(data).shape,
        dtype=np.asarray(data).dtype.str,
        compressor="zfp",
        meta={"error_bound": "legacy", "block_size": block, "scheme": scheme},
    )


_V0_REJECTED = "unsupported payload format version 0"


class TestLegacyPayloadsDecode:
    """Well-formed v0 blobs raise the typed error from every decode entry."""

    def test_legacy_blob_reports_version_zero(self, smooth_vector):
        blob = _legacy_sz_abs_blob(smooth_vector, 1e-5)
        assert blob.format_version == 0

    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_abs_legacy(self, smooth_vector, predictor):
        blob = _legacy_sz_abs_blob(smooth_vector, 1e-5, predictor)
        compressor = SZCompressor(ErrorBound.absolute(1e-5), predictor=predictor)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            compressor.decompress(blob)

    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_pw_rel_legacy(self, smooth_vector, predictor):
        blob = _legacy_sz_pw_rel_blob(smooth_vector, 1e-4, predictor)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            SZCompressor(1e-4, predictor=predictor).decompress(blob)

    def test_zfp_abs_legacy(self, smooth_vector):
        blob = _legacy_zfp_blob(smooth_vector, 1e-5, pw_rel=False)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            ZFPCompressor(ErrorBound.absolute(1e-5)).decompress(blob)

    def test_zfp_pw_rel_legacy(self, smooth_vector):
        blob = _legacy_zfp_blob(smooth_vector, 1e-4, pw_rel=True)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            ZFPCompressor(1e-4).decompress(blob)

    def test_raw_scheme_decodes_without_version(self):
        data = np.array([1e30, -1e30, 5e29, 1.0])
        payload = zlib.compress(data.tobytes(), 6)
        blob = CompressedBlob(
            payload=payload,
            shape=data.shape,
            dtype=data.dtype.str,
            compressor="sz",
            meta={"scheme": "raw"},
        )
        assert np.array_equal(SZCompressor(1e-4).decompress(blob), data)
