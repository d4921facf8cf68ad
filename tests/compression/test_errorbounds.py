"""Tests for error-bound specifications."""

import numpy as np
import pytest

from repro.compression.errorbounds import ErrorBound, ErrorBoundMode


class TestConstruction:
    def test_constructors_set_modes(self):
        assert ErrorBound("abs", 1e-3).mode is ErrorBoundMode.ABSOLUTE
        assert ErrorBound("rel", 1e-3).mode is ErrorBoundMode.VALUE_RANGE_RELATIVE
        assert ErrorBound.pointwise_relative(1e-3).mode is ErrorBoundMode.POINTWISE_RELATIVE

    def test_string_mode_coerced(self):
        eb = ErrorBound("abs", 0.5)
        assert eb.mode is ErrorBoundMode.ABSOLUTE

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_value_rejected(self, value):
        with pytest.raises(ValueError):
            ErrorBound("abs", value)

    def test_describe(self):
        assert "abs=0.001" in ErrorBound("abs", 1e-3).describe()


class TestResolution:
    def test_absolute_is_constant(self):
        data = np.array([1.0, 100.0])
        assert ErrorBound("abs", 0.25).absolute_for(data) == 0.25

    def test_value_range_relative_scales_with_range(self):
        data = np.array([0.0, 10.0])
        assert ErrorBound("rel", 0.01).absolute_for(data) == pytest.approx(0.1)

    def test_value_range_relative_constant_data(self):
        data = np.full(5, 3.0)
        out = ErrorBound("rel", 0.01).absolute_for(data)
        assert out > 0

    def test_pointwise_uses_min_magnitude(self):
        data = np.array([0.0, 0.5, -2.0])
        assert ErrorBound.pointwise_relative(0.1).absolute_for(data) == pytest.approx(0.05)

    def test_per_element_pointwise(self):
        data = np.array([1.0, -4.0, 0.0])
        per = ErrorBound.pointwise_relative(0.1).per_element(data)
        assert np.allclose(per, [0.1, 0.4, 0.0])

    def test_per_element_absolute(self):
        data = np.array([1.0, -4.0])
        per = ErrorBound("abs", 0.2).per_element(data)
        assert np.allclose(per, 0.2)
