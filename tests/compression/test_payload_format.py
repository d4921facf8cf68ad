"""Payload-format regression tests.

Two format guarantees are pinned here:

1. **No nested DEFLATE.**  The pre-codec SZ/ZFP pointwise-relative paths
   DEFLATEd an already-DEFLATEd inner section — wasted CPU, worse ratio.
   Payloads must contain exactly one entropy stage: each shard of the v2
   frame is DEFLATEd at most once (raw-gated planes not at all) and none of
   the inflated sections is itself a zlib stream.

2. **Unversioned (v0) payloads are rejected, not misread.**  Blobs without
   ``format_version`` in their metadata predate every current writer;
   SZ/ZFP refuse them with a typed ``ValueError`` *before parsing a byte* —
   the payloads below are not valid in any format, so reaching a parser
   would raise something else.  (Real seed-era bytes are rejected the same
   way in ``test_frozen_v1_payloads.py``.)
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.compression.base import CompressedBlob
from repro.compression.errorbounds import ErrorBound
from repro.compression.lossless import ZlibCompressor
from repro.compression.sharded import SHARDED_FORMAT_VERSION, decompress_sections
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor


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
        blob = SZCompressor(ErrorBound("abs", 1e-5)).compress(smooth_vector)
        assert blob.meta["scheme"] == "abs"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_zfp_pw_rel_single_entropy_stage(self, smooth_vector):
        blob = ZFPCompressor(1e-4).compress(smooth_vector)
        assert blob.meta["scheme"] == "pw_rel"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_zfp_abs_single_entropy_stage(self, smooth_vector):
        blob = ZFPCompressor(ErrorBound("abs", 1e-5)).compress(smooth_vector)
        assert blob.meta["scheme"] == "zfp"
        assert blob.format_version == SHARDED_FORMAT_VERSION
        _assert_sections_not_deflate(decompress_sections(blob.payload))

    def test_pw_rel_payload_shrinks_vs_legacy(self, smooth_vector):
        # Dropping the nested DEFLATE must not cost ratio on the
        # bread-and-butter workload.  2,796 bytes is what the v0 encoder
        # (one global bit width, DEFLATE inside DEFLATE) produced for this
        # vector, measured at the last commit that could still build one.
        new = SZCompressor(1e-4).compress(smooth_vector)
        assert new.nbytes <= 2796 * 1.02


def _unversioned_blob(data, compressor, scheme, **meta):
    """A blob as the pre-codec writers stamped it: no ``format_version``."""
    return CompressedBlob(
        payload=b"not a payload in any format",
        shape=np.asarray(data).shape,
        dtype=np.asarray(data).dtype.str,
        compressor=compressor,
        meta={"scheme": scheme, **meta},
    )


_V0_REJECTED = "unsupported payload format version 0"


class TestLegacyPayloadsDecode:
    """Unversioned blobs raise the typed error from every decode entry."""

    def test_legacy_blob_reports_version_zero(self, smooth_vector):
        blob = _unversioned_blob(smooth_vector, "sz", "abs")
        assert blob.format_version == 0

    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_abs_legacy(self, smooth_vector, predictor):
        blob = _unversioned_blob(smooth_vector, "sz", "abs", predictor=predictor)
        compressor = SZCompressor(ErrorBound("abs", 1e-5), predictor=predictor)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            compressor.decompress(blob)

    @pytest.mark.parametrize("predictor", ["lorenzo", "linear"])
    def test_sz_pw_rel_legacy(self, smooth_vector, predictor):
        blob = _unversioned_blob(smooth_vector, "sz", "pw_rel", predictor=predictor)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            SZCompressor(1e-4, predictor=predictor).decompress(blob)

    def test_zfp_abs_legacy(self, smooth_vector):
        blob = _unversioned_blob(smooth_vector, "zfp", "zfp", block_size=64)
        with pytest.raises(ValueError, match=_V0_REJECTED):
            ZFPCompressor(ErrorBound("abs", 1e-5)).decompress(blob)

    def test_zfp_pw_rel_legacy(self, smooth_vector):
        blob = _unversioned_blob(smooth_vector, "zfp", "pw_rel", block_size=64)
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


_SHARDED_READERS = {
    "sz": lambda: SZCompressor(1e-4),
    "zfp": lambda: ZFPCompressor(ErrorBound("abs", 1e-5)),
    "zlib": ZlibCompressor,
}


class TestFormatVersionGate:
    """Every sharded reader goes through one gate,
    :meth:`CompressedBlob.check_format_version`: a version its writer never
    stamped is refused with one message, before a byte is parsed."""

    def test_gate_accepts_only_the_expected_version(self, smooth_vector):
        blob = _unversioned_blob(smooth_vector, "sz", "abs", format_version=2)
        blob.check_format_version(2)
        with pytest.raises(
            ValueError, match="^unsupported payload format version 2$"
        ):
            blob.check_format_version(3)

    @pytest.mark.parametrize("name", sorted(_SHARDED_READERS))
    def test_future_version_rejected_by_every_reader(self, smooth_vector, name):
        compressor = _SHARDED_READERS[name]()
        blob = compressor.compress(smooth_vector)
        assert blob.format_version == SHARDED_FORMAT_VERSION
        future = SHARDED_FORMAT_VERSION + 1
        blob = replace(
            blob,
            payload=b"not a payload in any format",
            meta={**blob.meta, "format_version": future},
        )
        with pytest.raises(
            ValueError, match=f"^unsupported payload format version {future}$"
        ):
            compressor.decompress(blob)
