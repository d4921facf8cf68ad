"""Tests for the ZFP-like transform-based lossy compressor."""

import numpy as np
import pytest

from repro.compression.errorbounds import ErrorBound
from repro.compression.metrics import max_abs_error, max_pointwise_relative_error
from repro.compression.sharded import compress_sections, decompress_sections
from repro.compression.zfp import ZFPCompressor


class TestZFPCompressor:
    def test_absolute_bound_respected(self, smooth_vector):
        comp = ZFPCompressor(ErrorBound.absolute(1e-4))
        recon, blob = comp.roundtrip(smooth_vector)
        assert max_abs_error(smooth_vector, recon) <= 1e-4 * (1 + 1e-12)
        assert blob.compression_ratio > 5

    def test_pointwise_relative_bound_respected(self, smooth_vector):
        comp = ZFPCompressor(1e-4)
        recon, _ = comp.roundtrip(smooth_vector)
        assert max_pointwise_relative_error(smooth_vector, recon) <= 1e-4 * (1 + 1e-9)

    def test_rough_data_bound_respected(self, rough_vector):
        comp = ZFPCompressor(ErrorBound.absolute(1e-3))
        recon, _ = comp.roundtrip(rough_vector)
        assert max_abs_error(rough_vector, recon) <= 1e-3 * (1 + 1e-12)

    def test_non_multiple_of_block_size(self):
        data = np.sin(np.linspace(0, 5, 1000)) + 2.0  # 1000 % 64 != 0
        recon, _ = ZFPCompressor(ErrorBound.absolute(1e-5)).roundtrip(data)
        assert recon.shape == data.shape
        assert max_abs_error(data, recon) <= 1e-5 * (1 + 1e-12)

    def test_block_size_configurable(self, smooth_vector):
        comp = ZFPCompressor(ErrorBound.absolute(1e-5), block_size=16)
        recon, _ = comp.roundtrip(smooth_vector)
        assert max_abs_error(smooth_vector, recon) <= 1e-5 * (1 + 1e-12)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            ZFPCompressor(1e-4, block_size=1)

    def test_shape_and_dtype_restored(self):
        data = (np.arange(128, dtype=np.float32) + 1.0).reshape(2, 64)
        recon, _ = ZFPCompressor(1e-3).roundtrip(data)
        assert recon.shape == (2, 64)
        assert recon.dtype == np.float32

    def test_raw_fallback(self):
        data = np.array([1e30, -1e30, 1.0, 2.0] * 32)
        comp = ZFPCompressor(ErrorBound.absolute(1e-300))
        recon, blob = comp.roundtrip(data)
        assert blob.meta["scheme"] == "raw"
        assert np.array_equal(recon, data)

    @pytest.mark.parametrize(
        "bound",
        [ErrorBound.value_range_relative(1e-19), ErrorBound.pointwise_relative(1e-17)],
        ids=lambda b: b.mode.value,
    )
    def test_raw_fallback_in_relative_modes(self, bound):
        data = np.array([1e30, -1e30, 1.0, 2.0] * 32)
        recon, blob = ZFPCompressor(bound).roundtrip(data)
        assert blob.meta["scheme"] == "raw"
        assert np.array_equal(recon, data)

    def test_corrupt_v2_block_size_is_a_value_error(self, smooth_vector):
        comp = ZFPCompressor(1e-4)
        blob = comp.compress(smooth_vector)
        sections = decompress_sections(blob.payload)
        header = bytearray(sections[0])
        header[16:24] = bytes(8)  # block size field of <dQQQB>
        blob.payload = compress_sections([bytes(header), *sections[1:]])
        with pytest.raises(ValueError, match="block size"):
            comp.decompress(blob)

    def test_with_error_bound(self):
        comp = ZFPCompressor(1e-4, block_size=32)
        other = comp.with_error_bound(1e-6)
        assert other.block_size == 32
        assert other.error_bound.value == 1e-6

    def test_smooth_data_compresses_better_than_rough(self, smooth_vector, rough_vector):
        comp = ZFPCompressor(ErrorBound.absolute(1e-4))
        smooth_blob = comp.compress(smooth_vector)
        rough_blob = comp.compress(rough_vector)
        assert smooth_blob.compression_ratio > rough_blob.compression_ratio
