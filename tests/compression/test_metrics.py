"""Tests for compression metrics."""

import numpy as np
import pytest

from repro.compression.metrics import (
    evaluate_compressor,
    max_abs_error,
    max_pointwise_relative_error,
    psnr,
    value_range_relative_error,
)
from repro.compression.sz import SZCompressor
from repro.compression.identity import IdentityCompressor


class TestScalarMetrics:
    def test_max_abs_error(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.5, 3.0])
        assert max_abs_error(a, b) == 0.5
        assert max_abs_error(a, a) == 0.0

    def test_max_abs_error_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_abs_error(np.zeros(2), np.zeros(3))

    def test_pointwise_relative_error(self):
        a = np.array([2.0, 4.0])
        b = np.array([2.2, 4.0])
        assert max_pointwise_relative_error(a, b) == pytest.approx(0.1)

    def test_pointwise_relative_error_zero_violation(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.1, 1.0])
        assert max_pointwise_relative_error(a, b) == float("inf")

    def test_value_range_relative_error(self):
        a = np.array([0.0, 10.0])
        b = np.array([0.5, 10.0])
        assert value_range_relative_error(a, b) == pytest.approx(0.05)

    def test_psnr_infinite_for_exact(self):
        a = np.linspace(0, 1, 10)
        assert psnr(a, a) == float("inf")

    def test_psnr_decreases_with_noise(self):
        rng = np.random.default_rng(0)
        a = np.linspace(0, 1, 1000)
        small = psnr(a, a + 1e-6 * rng.standard_normal(1000))
        large = psnr(a, a + 1e-2 * rng.standard_normal(1000))
        assert small > large


class TestEvaluateCompressor:
    def test_lossy_evaluation(self, smooth_vector):
        ev = evaluate_compressor(SZCompressor(1e-4), smooth_vector)
        assert ev.compressor == "sz"
        assert ev.ratio > 1.0
        assert ev.max_pointwise_relative_error <= 1e-4 * (1 + 1e-9)
        assert ev.compress_seconds > 0

    def test_identity_evaluation(self, smooth_vector):
        ev = evaluate_compressor(IdentityCompressor(), smooth_vector)
        assert ev.ratio == pytest.approx(1.0)
        assert ev.max_abs_error == 0.0
        assert ev.psnr_db == float("inf")
