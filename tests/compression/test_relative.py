"""Tests for the pointwise-relative log transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.relative import (
    PointwiseRelativeTransform,
    reconstruct_from_masks,
)


class TestPointwiseRelativeTransform:
    def test_exact_roundtrip_without_loss(self):
        values = np.array([1.0, -2.5, 0.0, 1e-8, -3e4])
        transform = PointwiseRelativeTransform.forward(values, 1e-4)
        out = transform.backward(transform.log_values)
        nonzero = values != 0
        assert np.allclose(out[nonzero], values[nonzero], rtol=1e-12)
        assert np.all(out[~nonzero] == 0.0)

    def test_log_bound_guarantee(self):
        values = np.array([0.5, 5.0, -50.0])
        eb = 1e-3
        transform = PointwiseRelativeTransform.forward(values, eb)
        # Perturb the logs by exactly the log bound: relative error must stay <= eb.
        perturbed = transform.log_values + transform.log_bound
        out = transform.backward(perturbed)
        rel = np.abs(out - values) / np.abs(values)
        assert np.all(rel <= eb * (1 + 1e-9))

    def test_signs_preserved(self):
        values = np.array([-1.0, 2.0, -3.0])
        transform = PointwiseRelativeTransform.forward(values, 1e-2)
        out = transform.backward(transform.log_values)
        assert np.all(np.sign(out) == np.sign(values))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointwiseRelativeTransform.forward(np.array([np.inf]), 1e-3)

    def test_rejects_bad_eb(self):
        with pytest.raises(ValueError):
            PointwiseRelativeTransform.forward(np.array([1.0]), 0.0)

    def test_backward_shape_mismatch_raises(self):
        transform = PointwiseRelativeTransform.forward(np.array([1.0, 2.0]), 1e-3)
        with pytest.raises(ValueError):
            transform.backward(np.zeros(3))


def _reference_forward_logs(values):
    """``forward``'s log formula before it skipped the gather without zeros."""
    return np.log(np.abs(values[values != 0.0]))


def _reference_backward(logs, negative_mask, zero_mask):
    """``backward``'s formula before the no-zero fast path and in-place signs."""
    result = np.zeros(zero_mask.shape, dtype=np.float64)
    result[~zero_mask] = np.exp(logs)
    return result * np.where(negative_mask, -1.0, 1.0)


_signed_values = hnp.arrays(
    np.float64,
    st.integers(1, 200),
    elements=st.one_of(
        st.just(0.0),
        st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
    ),
)


class TestFastPathsMatchReference:
    @given(values=_signed_values, with_zeros=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_forward_and_backward_bitwise(self, values, with_zeros):
        if not with_zeros:
            values = np.where(values == 0.0, 1.5, values)
        transform = PointwiseRelativeTransform.forward(values, 1e-4)
        assert transform.log_values.tobytes() == _reference_forward_logs(values).tobytes()
        perturbed = transform.log_values + 0.25 * transform.log_bound
        expected = _reference_backward(
            perturbed, transform.negative_mask, transform.zero_mask
        )
        assert transform.backward(perturbed).tobytes() == expected.tobytes()
        packed = (np.packbits(transform.negative_mask), np.packbits(transform.zero_mask))
        rebuilt = reconstruct_from_masks(perturbed, *packed, values.size)
        assert rebuilt.tobytes() == expected.tobytes()

    def test_multidimensional_transform_keeps_flat_logs(self):
        values = np.array([[1.0, -2.0], [3.0, -4.0]])
        transform = PointwiseRelativeTransform.forward(values, 1e-4)
        assert transform.log_values.shape == (4,)
        out = transform.backward(transform.log_values)
        assert out.shape == (2, 2)
        assert out.tobytes() == _reference_backward(
            transform.log_values, transform.negative_mask, transform.zero_mask
        ).tobytes()

    def test_mask_reconstruction_rejects_a_wrong_log_count(self):
        zero_mask = np.array([True, False, False, True])
        packed = (np.packbits(np.zeros(4, dtype=bool)), np.packbits(zero_mask))
        with pytest.raises(ValueError, match="wrong shape"):
            reconstruct_from_masks(np.zeros(3), *packed, 4)
