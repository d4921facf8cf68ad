"""Spec equivalence: the block codec writes the bytes its specification says.

``docs/payload-format.md`` declares the pure-Python loops of
``repro.compression._codec_scalar`` to be the executable specification of
the block stream.  No product path reaches that module; these tests call it
directly and pin the contract against the one product implementation
(``codec.encode_signed`` / ``decode_signed``, labelled ``vector`` below):

* **byte identity** — for identical inputs the codec must produce payloads
  identical to the scalar reference, across hypothesis workloads,
  solver-shaped quantization codes, denormal-derived residuals, the 63-bit
  zigzag edge and all-escape blocks;
* **cross decode** — a stream written by either decodes identically through
  the other;
* **block sizes** — the codec takes multiples of 64 only: anything else is
  a ``ValueError`` on encode and, in a stream the specification wrote, a
  ``CodecFormatError`` on decode;
* **throughput sanity** — the vectorized encoder must never lose to the
  pure-Python reference (the real margin is ~three orders of magnitude; the
  assertion is deliberately loose for CI noise).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression._codec_scalar import decode_signed_scalar, encode_signed_scalar
from repro.compression.codec import CodecFormatError, decode_signed, encode_signed
from repro.compression.quantization import _MAX_CODE

_EDGE = int(_MAX_CODE)

#: ``(encode, decode)`` per implementation: the specification and the product.
_IMPLEMENTATIONS = {
    "scalar": (encode_signed_scalar, decode_signed_scalar),
    "vector": (encode_signed, decode_signed),
}


def _solver_codes(n=6000, seed=11):
    """Quantization-code-shaped data: mostly tiny, a few rough regions."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(-3, 4, n).astype(np.int64)
    rough = rng.choice(n, n // 50, replace=False)
    codes[rough] = rng.integers(-(2**20), 2**20, rough.size)
    return codes


def _denormal_residuals(n=4096):
    """Bit-pattern deltas of denormal float64s — tiny word residuals that
    exercise 1-2 bit blocks next to sign-flip escapes."""
    tiny = np.ldexp(np.arange(1, n + 1, dtype=np.float64), -1074)
    tiny[::7] *= -1.0
    words = tiny.view(np.uint64)
    return (words[1:] - words[:-1]).view(np.int64)


_CASES = {
    "empty": np.empty(0, dtype=np.int64),
    "single": np.asarray([-42], dtype=np.int64),
    "all_zero": np.zeros(3 * 1024, dtype=np.int64),
    "solver": _solver_codes(),
    "denormals": _denormal_residuals(),
    "zigzag_edge": np.asarray([_EDGE, -_EDGE, _EDGE - 1, 1 - _EDGE, 0], dtype=np.int64),
    "all_escape": np.full(2048, 2**40, dtype=np.int64),
    "partial_block": np.arange(-700, 701, dtype=np.int64),
}


@pytest.mark.parametrize("implementation", sorted(_IMPLEMENTATIONS))
class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_matches_scalar_reference(self, implementation, name):
        encode, decode = _IMPLEMENTATIONS[implementation]
        codes = _CASES[name]
        reference = encode_signed_scalar(codes)
        assert encode(codes) == reference
        assert np.array_equal(decode(reference), codes)

    @pytest.mark.parametrize("width_cap", [1, 16, 64])
    def test_width_cap_sweep(self, implementation, width_cap):
        encode, _ = _IMPLEMENTATIONS[implementation]
        codes = _solver_codes(seed=width_cap)
        kwargs = {"width_cap": width_cap, "block_size": 256}
        assert encode(codes, **kwargs) == encode_signed_scalar(codes, **kwargs)

    def test_cross_decode(self, implementation):
        """A stream from either implementation decodes through both."""
        encode, _ = _IMPLEMENTATIONS[implementation]
        codes = _CASES["solver"]
        payload = encode(codes)
        for _, decode in _IMPLEMENTATIONS.values():
            assert np.array_equal(decode(payload), codes)


@given(
    codes=st.lists(
        st.integers(min_value=-_EDGE, max_value=_EDGE), min_size=0, max_size=300
    ),
    block_size=st.sampled_from([64, 192, 1024]),
    width_cap=st.sampled_from([1, 8, 32, 64]),
)
@settings(max_examples=60, deadline=None)
def test_backends_agree_on_hypothesis_workloads(codes, block_size, width_cap):
    codes = np.asarray(codes, dtype=np.int64)
    kwargs = {"block_size": block_size, "width_cap": width_cap}
    reference = encode_signed_scalar(codes, **kwargs)
    assert encode_signed(codes, **kwargs) == reference
    assert np.array_equal(decode_signed(reference), codes)
    assert np.array_equal(decode_signed_scalar(reference), codes)


@pytest.mark.parametrize("block_size", [1, 3, 63, 100])
def test_block_size_must_be_a_multiple_of_64(block_size):
    """The specification allows any block size; the codec's word-lane packer
    does not, and says so with the typed error of each direction."""
    codes = _CASES["partial_block"]
    with pytest.raises(ValueError, match="multiple of 64"):
        encode_signed(codes, block_size=block_size)
    stream = encode_signed_scalar(codes, block_size=block_size)
    assert np.array_equal(decode_signed_scalar(stream), codes)
    with pytest.raises(CodecFormatError, match="block size"):
        decode_signed(stream)


def test_vector_encode_not_slower_than_scalar():
    """Benchmark-threshold smoke test (the honest ratio is ~1000x; asserting
    >= 1x keeps it immune to CI timer noise while catching a regression
    that drops the codec back to per-element Python)."""
    codes = _solver_codes(n=20000)
    start = time.perf_counter()
    payload = encode_signed_scalar(codes)
    scalar_s = time.perf_counter() - start
    start = time.perf_counter()
    assert encode_signed(codes) == payload
    vector_s = time.perf_counter() - start
    assert vector_s <= scalar_s
