"""Tests for the SZ-like prediction-based lossy compressor."""

import numpy as np
import pytest

from repro.compression.errorbounds import ErrorBound
from repro.compression.metrics import max_abs_error, max_pointwise_relative_error
from repro.compression.sz import SZCompressor


def _roundtrip(compressor, data):
    """Compress then decompress: the reconstruction and the blob."""
    blob = compressor.compress(data)
    return compressor.decompress(blob), blob


class TestPointwiseRelativeMode:
    def test_bound_respected_on_smooth_data(self, smooth_vector):
        comp = SZCompressor(1e-4)
        recon, blob = _roundtrip(comp, smooth_vector)
        assert max_pointwise_relative_error(smooth_vector, recon) <= 1e-4 * (1 + 1e-9)
        assert blob.compression_ratio > 10

    def test_bound_respected_on_rough_data(self, rough_vector):
        comp = SZCompressor(1e-3)
        recon, _ = _roundtrip(comp, rough_vector)
        assert max_pointwise_relative_error(rough_vector, recon) <= 1e-3 * (1 + 1e-9)

    def test_zeros_reconstructed_exactly(self):
        rng = np.random.default_rng(0)
        data = np.where(rng.random(2000) < 0.3, 0.0, rng.standard_normal(2000))
        recon, _ = _roundtrip(SZCompressor(1e-3), data)
        assert np.all(recon[data == 0.0] == 0.0)

    def test_negative_values_keep_sign(self):
        data = np.linspace(-5, -1, 1000)
        recon, _ = _roundtrip(SZCompressor(1e-4), data)
        assert np.all(recon < 0)

    def test_tighter_bound_lower_ratio(self, smooth_vector):
        loose = SZCompressor(1e-2).compress(smooth_vector)
        tight = SZCompressor(1e-8).compress(smooth_vector)
        assert loose.nbytes < tight.nbytes


class TestOtherModes:
    def test_absolute_mode(self, smooth_vector):
        comp = SZCompressor(ErrorBound("abs", 1e-5))
        recon, _ = _roundtrip(comp, smooth_vector)
        assert max_abs_error(smooth_vector, recon) <= 1e-5 * (1 + 1e-12)

    def test_value_range_relative_mode(self, smooth_vector):
        comp = SZCompressor(ErrorBound("rel", 1e-4))
        recon, _ = _roundtrip(comp, smooth_vector)
        value_range = smooth_vector.max() - smooth_vector.min()
        assert max_abs_error(smooth_vector, recon) <= 1e-4 * value_range * (1 + 1e-12)

    def test_absolute_bound_holds_at_two_to_the_25(self):
        comp = SZCompressor(ErrorBound("abs", 1e-4))
        # Alone, 2**25 + 44/64 rounds 1.0000169e-4 away on both grid
        # neighbours, so the block is stored raw.
        single = np.array([33554432.6875])
        recon, _ = _roundtrip(comp, single)
        assert max_abs_error(single, recon) <= 1e-4
        # On the 1/64 grid over [2**25, 2**25 + 1), 8 of the 64 values violate.
        grid = 2.0**25 + np.arange(64) / 64
        recon, _ = _roundtrip(comp, grid)
        assert np.count_nonzero(np.abs(recon - grid) > 1e-4) == 0

    def test_value_range_bound_holds_on_a_grid_midpoint(self):
        # Constant data resolves a value-range bound of 1e-2; 0.75 sits on
        # the midpoint of the 0.02 grid and both neighbours reconstruct
        # 0.010000000000000009 away, so the block is stored raw.
        data = np.full(8, 0.75)
        comp = SZCompressor(ErrorBound("rel", 1e-2))
        recon, blob = _roundtrip(comp, data)
        assert blob.meta["scheme"] == "raw"
        assert max_abs_error(data, recon) <= 1e-2

    def test_raw_fallback_on_impossible_bound(self):
        # Bound so tight that 63-bit codes overflow: falls back to lossless.
        data = np.array([1e30, -1e30, 5e29, 1.0])
        comp = SZCompressor(ErrorBound("abs", 1e-300))
        recon, blob = _roundtrip(comp, data)
        assert blob.meta["scheme"] == "raw"
        assert np.array_equal(recon, data)


class TestConfiguration:
    def test_shape_and_dtype_restored(self):
        data = np.arange(60, dtype=np.float32).reshape(3, 20) + 1.0
        recon, _ = _roundtrip(SZCompressor(1e-3), data)
        assert recon.shape == (3, 20)
        assert recon.dtype == np.float32

    def test_linear_predictor_roundtrip(self, smooth_vector):
        comp = SZCompressor(1e-4, predictor="linear")
        recon, _ = _roundtrip(comp, smooth_vector)
        assert max_pointwise_relative_error(smooth_vector, recon) <= 1e-4 * (1 + 1e-9)

    def test_invalid_predictor(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-4, predictor="cubic")

    def test_invalid_zlib_level(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-4, zlib_level=17)

    def test_with_error_bound_returns_new_instance(self):
        comp = SZCompressor(1e-4, predictor="linear", zlib_level=5)
        tighter = comp.with_error_bound(1e-6)
        assert tighter is not comp
        assert tighter.predictor == "linear"
        assert tighter.zlib_level == 5
        assert tighter.error_bound.value == 1e-6

    def test_records_timing(self, smooth_vector):
        comp = SZCompressor(1e-4)
        _roundtrip(comp, smooth_vector)
        assert comp.mean_seconds("compress") > 0
        assert comp.mean_seconds("decompress") > 0

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            SZCompressor(1e-4).compress(np.array([]))

    def test_wrong_blob_compressor_rejected(self, smooth_vector):
        from repro.compression.identity import IdentityCompressor

        blob = IdentityCompressor().compress(smooth_vector)
        with pytest.raises(ValueError):
            SZCompressor(1e-4).decompress(blob)
