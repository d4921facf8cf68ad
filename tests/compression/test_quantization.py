"""Tests for error-bounded quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.quantization import (
    QuantizationOverflow,
    dequantize_absolute,
    quantization_error,
    quantize_absolute,
)


class TestQuantizeAbsolute:
    def test_error_within_bound(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000) * 50
        bound = 1e-3
        q = quantize_absolute(values, bound)
        recon = dequantize_absolute(q)
        assert np.max(np.abs(values - recon)) <= bound + 1e-15

    def test_integer_codes(self):
        q = quantize_absolute(np.array([0.0, 1.0, 2.0]), 0.5)
        assert q.codes.dtype == np.int64

    def test_overflow_raises(self):
        with pytest.raises(QuantizationOverflow):
            quantize_absolute(np.array([1e40]), 1e-30)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize_absolute(np.array([np.nan]), 0.1)

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            quantize_absolute(np.array([1.0]), 0.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            quantize_absolute(np.zeros((2, 2)), 0.1)

    def test_quantization_error_helper(self):
        values = np.linspace(0, 1, 100)
        q = quantize_absolute(values, 0.01)
        max_err, mean_err = quantization_error(values, q)
        assert 0 <= mean_err <= max_err <= 0.01 + 1e-15

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bound_respected_property(self, values, bound):
        arr = np.asarray(values, dtype=np.float64)
        q = quantize_absolute(arr, bound)
        recon = dequantize_absolute(q)
        # The reconstruction multiply rounds to the nearest double, so the
        # guarantee necessarily carries a half-ulp-of-the-value slack.
        slack = 2e-16 * max(1.0, float(np.max(np.abs(arr))))
        assert np.max(np.abs(arr - recon)) <= bound * (1 + 1e-12) + slack

    def test_bound_respected_at_large_magnitude_regression(self):
        # Found by hypothesis: rint(999999.0 / 1.2) lands on the wrong grid
        # neighbour and the error exceeded the bound by ~9e-11 before the
        # correction step in quantize_absolute.
        arr = np.asarray([999999.0])
        q = quantize_absolute(arr, 0.6)
        recon = dequantize_absolute(q)
        assert np.max(np.abs(arr - recon)) <= 0.6 * (1 + 1e-12) + 2e-16 * 999999.0

    def test_strict_refuses_a_midpoint_both_neighbours_miss(self):
        # 0.75 / 0.02 = 37.5: 37 * 0.02 and 38 * 0.02 both round to
        # 0.010000000000000009 away from 0.75.
        arr = np.asarray([0.75])
        q = quantize_absolute(arr, 0.01)
        assert np.abs(arr - dequantize_absolute(q))[0] > 0.01
        with pytest.raises(QuantizationOverflow):
            quantize_absolute(arr, 0.01, strict=True)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_strict_bound_holds_exactly_or_raises(self, values, bound):
        arr = np.asarray(values, dtype=np.float64)
        try:
            q = quantize_absolute(arr, bound, strict=True)
        except QuantizationOverflow:
            return
        assert np.max(np.abs(arr - dequantize_absolute(q))) <= bound


def _reference_codes(values, bound):
    """The allocation-per-step formula ``quantize_absolute`` had before it
    reused its temporaries; kept as the bitwise reference."""
    quantum = 2.0 * bound
    codes = np.rint(values / quantum).astype(np.int64)
    error = values - codes.astype(np.float64) * quantum
    bad = np.abs(error) > bound
    if np.any(bad):
        step = np.where(error > 0, 1, -1).astype(np.int64)
        codes = np.where(bad, codes + step, codes)
    return codes


class TestInPlaceFormulaMatchesReference:
    @given(
        values=hnp.arrays(
            np.float64, st.integers(1, 300),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ),
        bound=st.sampled_from([1e-9, 1e-4, 0.6, 3.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_codes_and_reconstruction_bitwise(self, values, bound):
        q = quantize_absolute(values, bound)
        reference = _reference_codes(values, bound)
        assert q.codes.tobytes() == reference.tobytes()
        recon = dequantize_absolute(q)
        assert recon.tobytes() == (reference.astype(np.float64) * q.quantum).tobytes()

    def test_nudged_codes_match_reference(self):
        # rint(999999.0 / 1.2) lands on the wrong grid neighbour: the
        # correction branch runs.
        arr = np.asarray([999999.0, 1.0, -999999.0])
        assert quantize_absolute(arr, 0.6).codes.tobytes() == (
            _reference_codes(arr, 0.6).tobytes()
        )
