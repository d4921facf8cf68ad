"""Property-based tests: every lossy compressor honours its error bound.

These are the guarantees the paper's Theorems 2 and 3 rely on, so they are
tested over adversarial inputs with Hypothesis rather than just on smooth
vectors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.errorbounds import ErrorBound
from repro.compression.lossless import ZlibCompressor
from repro.compression.metrics import max_abs_error, max_pointwise_relative_error
from repro.compression.sharded import SHARDED_FORMAT_VERSION
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor

_float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=400),
    elements=st.floats(
        min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
    ),
)


def _roundtrip(compressor, data):
    """Compress then decompress: the reconstruction and the blob."""
    blob = compressor.compress(data)
    return compressor.decompress(blob), blob


_bounds = st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5])


class TestSZProperties:
    @given(data=_float_arrays, eb=_bounds)
    @settings(max_examples=60, deadline=None)
    def test_pointwise_relative_bound(self, data, eb):
        recon, blob = _roundtrip(SZCompressor(eb), data)
        assert recon.shape == data.shape
        assert max_pointwise_relative_error(data, recon) <= eb * (1 + 1e-8)

    @given(data=_float_arrays, eb=_bounds)
    @settings(max_examples=60, deadline=None)
    def test_absolute_bound(self, data, eb):
        recon, _ = _roundtrip(SZCompressor(ErrorBound("abs", eb)), data)
        assert max_abs_error(data, recon) <= eb * (1 + 1e-8)

    @given(data=_float_arrays, eb=_bounds)
    @settings(max_examples=40, deadline=None)
    def test_zeros_always_exact(self, data, eb):
        data = data.copy()
        data[:: max(1, data.size // 7)] = 0.0
        recon, _ = _roundtrip(SZCompressor(eb), data)
        assert np.all(recon[data == 0.0] == 0.0)


_MODES = ("abs", "rel", "pw_rel")

#: Bound values no 63-bit code grid can honour on generic data, per mode:
#: they force the raw fallback (``tests/compression/test_zfp.py`` pins that
#: each one does).
_UNREACHABLE = {"abs": 1e-300, "rel": 1e-19, "pw_rel": 1e-17}


class TestZFPProperties:
    @given(data=_float_arrays, eb=_bounds)
    @settings(max_examples=60, deadline=None)
    def test_absolute_bound(self, data, eb):
        recon, _ = _roundtrip(ZFPCompressor(ErrorBound("abs", eb)), data)
        assert max_abs_error(data, recon) <= eb * (1 + 1e-8)

    @given(data=_float_arrays, eb=_bounds)
    @settings(max_examples=40, deadline=None)
    def test_pointwise_relative_bound(self, data, eb):
        recon, _ = _roundtrip(ZFPCompressor(eb), data)
        assert max_pointwise_relative_error(data, recon) <= eb * (1 + 1e-8)


    @given(
        data=_float_arrays,
        eb=_bounds,
        mode=st.sampled_from(sorted(_MODES)),
        shape=st.sampled_from(["dense", "sparse", "all_zero", "raw"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_v2_honours_every_mode_pointwise(self, data, eb, mode, shape):
        data = data.copy()
        if shape == "sparse":
            data[::3] = 0.0
        elif shape == "all_zero":
            data[:] = 0.0
        elif shape == "raw":
            eb = _UNREACHABLE[mode]
        bound = ErrorBound(mode, eb)
        recon, blob = _roundtrip(ZFPCompressor(bound), data)
        assert blob.format_version == SHARDED_FORMAT_VERSION
        if blob.meta["scheme"] == "raw":
            assert np.array_equal(recon, data)
        else:
            # The DCT's own rounding (~1e-16 relative to the data magnitude)
            # is outside the quantizer's guarantee; a blob that did not fall
            # back to raw is only held to bounds clear of it.  The violation
            # itself is pinned by ``test_dct_rounding_exceeds_a_near_ulp_bound``.
            assume(bound.absolute_for(data) >= 1e-13 * np.abs(data).max())
        assert recon.shape == data.shape
        assert np.all(np.abs(recon - data) <= bound.per_element(data) * (1 + 1e-8))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP.md item 7: ZFP's block DCT rounds past a bound within "
        "~1e-13 of the data magnitude without falling back to raw "
        "(Fox et al., arXiv:2003.02324)",
    )
    def test_dct_rounding_exceeds_a_near_ulp_bound(self):
        data = np.zeros(66)
        data[0], data[64] = -7044.0, 4947.0
        bound = ErrorBound("rel", _UNREACHABLE["rel"])
        recon, blob = _roundtrip(ZFPCompressor(bound), data)
        assert blob.meta["scheme"] == "zfp"  # the 63-bit code grid fits
        assert np.all(np.abs(recon - data) <= bound.per_element(data) * (1 + 1e-8))


class TestLosslessProperties:
    @given(data=_float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_bitwise_exact(self, data):
        recon, _ = _roundtrip(ZlibCompressor(), data)
        assert np.array_equal(recon, data, equal_nan=True)
