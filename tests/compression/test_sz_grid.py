"""SZ's multidimensional Lorenzo path: same reconstructions, smaller codes.

On an N-D input whose every element has a quantization code, SZ predicts
along each axis instead of along the flattened vector and records the grid
in its code header.  The quantized codes are the same either way, so the
N-D reconstruction must be bitwise the 1-D reconstruction of the same
values; only the payload bytes may move.  The 1-D, ``linear``-predictor and
``pw_rel``-with-zeros streams keep their bytes, pinned below as SHA-256
digests of payloads written before the N-D path existed.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.errorbounds import ErrorBound
from repro.compression.sharded import compress_sections, decompress_sections
from repro.compression.sz import (
    _V2_CODE_HEADER,
    SZCompressor,
    _predict_grid,
    _unpredict_grid,
)
from repro.sparse import poisson_system

_MODES = {
    "abs": lambda: ErrorBound.absolute(1e-3),
    "rel": lambda: ErrorBound.value_range_relative(1e-4),
    "pw_rel": lambda: ErrorBound.pointwise_relative(1e-4),
}

_shapes = hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9)

_elements = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def _tolerance(bound: ErrorBound, data: np.ndarray) -> np.ndarray:
    return bound.per_element(data.reshape(-1)) * (1 + 1e-8)


def _code_header(blob) -> bytes:
    return bytes(decompress_sections(blob.payload)[0])


class TestGridReconstruction:
    @given(data=hnp.arrays(np.float64, _shapes, elements=_elements),
           mode=st.sampled_from(sorted(_MODES)))
    @settings(max_examples=120, deadline=None)
    def test_nd_reconstruction_is_the_flat_one(self, data, mode):
        bound = _MODES[mode]()
        compressor = SZCompressor(bound)
        nd = compressor.decompress(compressor.compress(data))
        flat = compressor.decompress(compressor.compress(data.reshape(-1)))
        assert nd.shape == data.shape
        assert nd.reshape(-1).tobytes() == flat.tobytes()
        error = np.abs(nd.reshape(-1) - data.reshape(-1))
        assert np.all(error <= _tolerance(bound, data))

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_smooth_grid_takes_the_nd_path_and_shrinks(self, mode):
        field = poisson_system(18, seed=3).x_true.reshape(18, 18, 18)
        compressor = SZCompressor(_MODES[mode]())
        nd_blob = compressor.compress(field)
        flat_blob = compressor.compress(field.reshape(-1))
        header = _code_header(nd_blob)
        assert len(header) == _V2_CODE_HEADER.size + 1 + 3 * 8
        assert struct.unpack_from("<B3Q", header, _V2_CODE_HEADER.size) == (3, 18, 18, 18)
        assert len(_code_header(flat_blob)) == _V2_CODE_HEADER.size
        assert nd_blob.nbytes < flat_blob.nbytes
        assert (
            compressor.decompress(nd_blob).reshape(-1).tobytes()
            == compressor.decompress(flat_blob).tobytes()
        )

    def test_zeros_and_linear_predictor_keep_the_flat_stream(self):
        grid = np.linspace(1.0, 2.0, 60).reshape(3, 4, 5)
        with_zeros = grid.copy()
        with_zeros[1, 2, 3] = 0.0
        for compressor, data in (
            (SZCompressor(1e-4), with_zeros),
            (SZCompressor(1e-4, predictor="linear"), grid),
        ):
            blob = compressor.compress(data)
            assert len(_code_header(blob)) == _V2_CODE_HEADER.size
            assert blob.payload == compressor.compress(data.reshape(-1)).payload


class TestGridPredictor:
    @given(shape=_shapes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_wraps_exactly(self, shape, seed):
        """Full-range int64 codes overflow the differences; the inverse still
        recovers them, since both directions wrap modulo 2**64."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(-(2**63), 2**63 - 1, size=int(np.prod(shape)),
                             dtype=np.int64, endpoint=True)
        residuals = _predict_grid(codes, shape)
        assert residuals.shape == codes.shape
        assert np.array_equal(_unpredict_grid(residuals.copy(), shape), codes)

    def test_matches_per_axis_first_differences(self):
        codes = np.arange(60, dtype=np.int64) ** 2
        expected = codes.reshape(3, 4, 5)
        for axis in range(3):
            expected = np.diff(expected, axis=axis, prepend=0)
        assert np.array_equal(_predict_grid(codes, (3, 4, 5)), expected.reshape(-1))


class TestGridHeader:
    def _sections(self):
        compressor = SZCompressor(ErrorBound.absolute(1e-3))
        blob = compressor.compress(np.linspace(1.0, 2.0, 24).reshape(2, 3, 4))
        return compressor, blob, decompress_sections(blob.payload)

    def _with_header(self, blob, sections, header: bytes):
        rebuilt = [header, *[bytes(s) for s in sections[1:]]]
        blob.payload = compress_sections(rebuilt)
        return blob

    def test_grid_not_holding_the_codes_is_rejected(self):
        compressor, blob, sections = self._sections()
        header = bytes(sections[0])
        bad = header[:_V2_CODE_HEADER.size] + struct.pack("<B3Q", 3, 2, 3, 5)
        with pytest.raises(ValueError, match="does not hold its 24 codes"):
            compressor.decompress(self._with_header(blob, sections, bad))

    @pytest.mark.parametrize("cut", [1, 8, 20])
    def test_truncated_header_is_rejected(self, cut):
        compressor, blob, sections = self._sections()
        header = bytes(sections[0])
        with pytest.raises(ValueError):
            compressor.decompress(self._with_header(blob, sections, header[:-cut]))

    def test_header_longer_than_its_grid_is_rejected(self):
        compressor, blob, sections = self._sections()
        header = bytes(sections[0]) + b"\0"
        with pytest.raises(ValueError, match="expected"):
            compressor.decompress(self._with_header(blob, sections, header))


#: SHA-256 of 1-D-path SZ payloads, written by the encoder before the N-D
#: path existed.  DEFLATE output is only stable within one zlib lineage, so
#: the pins are checked against the reference zlib and skipped under zlib-ng.
_FLAT_PAYLOAD_SHA256 = {
    "pw_rel": "985b2403c9023e8f568d249a2738f15d3d24e75351320cb5c4a0f2afc1896761",
    "pw_rel_zeros": "3e822b3010ea290bfddfed32ea12c4b6d9400ab1b9917fbacd0b060b75354328",
    "abs": "28059265c20ca3b4a4b6a4f469c5a5e1dcef390d73651fd8915004d97241717e",
    "rel": "2249ea9eca3ba12e3718c5d5779e70001a28aaff2f0ffec09e9934e9e377beea",
    "linear": "ca10425ee0e7548bda63aee66f58535cd243568c8440b1e39281da51756243cd",
    "zeros3d": "99ccd1571a9754bc1dc97210e2d73a356821e05f54f876bc1c3b76a9a155d003",
    "linear3d": "18016255fc445524fd9be1c5e0a879c45bc11ffe46cefeaf01aaf2f85a823e85",
}

reference_zlib = pytest.mark.skipif(
    "ng" in zlib.ZLIB_RUNTIME_VERSION, reason="payload pins assume the reference zlib"
)


@reference_zlib
@pytest.mark.parametrize("case", sorted(_FLAT_PAYLOAD_SHA256))
def test_flat_stream_payload_bytes_unchanged(case):
    t = np.linspace(0.0, 1.0, 20000)
    smooth = np.sin(2 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t) + 1.7
    zeros = smooth - 1.7
    zeros[::97] = 0.0
    compressor, data = {
        "pw_rel": (SZCompressor(1e-4), smooth),
        "pw_rel_zeros": (SZCompressor(1e-4), zeros),
        "abs": (SZCompressor(ErrorBound.absolute(1e-6)), smooth),
        "rel": (SZCompressor(ErrorBound.value_range_relative(1e-4)), smooth),
        "linear": (SZCompressor(1e-4, predictor="linear"), smooth),
        "zeros3d": (SZCompressor(1e-4), zeros[:8000].reshape(20, 20, 20)),
        "linear3d": (
            SZCompressor(1e-4, predictor="linear"),
            smooth[:8000].reshape(20, 20, 20),
        ),
    }[case]
    digest = hashlib.sha256(compressor.compress(data).payload).hexdigest()
    assert digest == _FLAT_PAYLOAD_SHA256[case]
