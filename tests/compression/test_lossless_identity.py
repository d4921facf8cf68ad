"""Tests for the identity (traditional) and lossless compressors and the registry."""

import numpy as np
import pytest

from repro.compression import (
    IdentityCompressor,
    LzmaCompressor,
    ZlibCompressor,
    make_compressor,
)


def _roundtrip(compressor, data):
    """Compress then decompress: the reconstruction and the blob."""
    blob = compressor.compress(data)
    return compressor.decompress(blob), blob


class TestIdentityCompressor:
    def test_bitwise_roundtrip(self, rough_vector):
        recon, blob = _roundtrip(IdentityCompressor(), rough_vector)
        assert np.array_equal(recon, rough_vector)
        assert blob.compression_ratio == pytest.approx(1.0)

    def test_integer_arrays(self):
        data = np.arange(100, dtype=np.int32)
        recon, _ = _roundtrip(IdentityCompressor(), data)
        assert np.array_equal(recon, data)
        assert recon.dtype == np.int32

    def test_multidimensional(self):
        data = np.random.default_rng(0).random((4, 5, 6))
        recon, _ = _roundtrip(IdentityCompressor(), data)
        assert recon.shape == (4, 5, 6)
        assert np.array_equal(recon, data)


class TestLosslessCompressors:
    @pytest.mark.parametrize("cls", [ZlibCompressor, LzmaCompressor])
    def test_bitwise_roundtrip(self, cls, smooth_vector):
        recon, blob = _roundtrip(cls(), smooth_vector)
        assert np.array_equal(recon, smooth_vector)
        assert blob.compression_ratio >= 1.0

    def test_zlib_level_validation(self):
        with pytest.raises(ValueError):
            ZlibCompressor(level=11)

    def test_lzma_preset_validation(self):
        with pytest.raises(ValueError):
            LzmaCompressor(preset=-1)

    def test_repeated_data_compresses_well(self):
        data = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), 5000)
        blob = ZlibCompressor().compress(data)
        assert blob.compression_ratio > 10

    def test_lossless_flag(self):
        assert ZlibCompressor.lossless is True
        assert LzmaCompressor.lossless is True
        assert IdentityCompressor.lossless is True


class TestRegistry:
    @pytest.mark.parametrize(
        "name, built",
        [("none", "none"), ("identity", "none"), ("zlib", "zlib"), ("gzip", "zlib"),
         ("lzma", "lzma"), ("sz", "sz"), ("zfp", "zfp")],
    )
    def test_expected_names_registered(self, name, built):
        assert make_compressor(name).name == built

    def test_make_compressor_with_kwargs(self):
        comp = make_compressor("zlib", level=9)
        assert comp.level == 9

    def test_make_sz_with_bound(self):
        comp = make_compressor("sz", error_bound=1e-5)
        assert comp.error_bound.value == 1e-5

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_compressor("definitely-not-registered")
