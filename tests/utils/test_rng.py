"""Tests for repro.utils.rng."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.rng import default_rng, derive_seed


class TestDefaultRng:
    def test_returns_generator_from_int(self):
        gen = default_rng(3)
        assert isinstance(gen, np.random.Generator)

    def test_same_seed_same_stream(self):
        a = default_rng(5).integers(0, 1000, size=10)
        b = default_rng(5).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert default_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_salt_changes_seed(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    def test_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_none_seed_allowed(self):
        assert isinstance(derive_seed(None, 1), int)

    def test_nonnegative(self):
        for salt in range(20):
            assert derive_seed(123, salt) >= 0


def _uint64_derive_seed(seed, *salts):
    """``derive_seed`` as it was first written, in NumPy ``uint64`` steps."""
    import zlib

    state = np.uint64(0x9E3779B97F4A7C15)
    values = [0 if seed is None else int(seed)] + [
        zlib.crc32(s.encode("utf-8")) if isinstance(s, str) else int(s) for s in salts
    ]
    for value in values:
        v = np.uint64(value & 0xFFFFFFFFFFFFFFFF)
        state = np.uint64((int(state) ^ int(v)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF)
        state = np.uint64(int(state) ^ (int(state) >> np.uint64(31)))
    return int(state) & 0x7FFFFFFFFFFFFFFF


_WIDE_INTS = st.integers(min_value=-(2**80), max_value=2**80)


@settings(max_examples=500, deadline=None)
@given(
    seed=st.one_of(st.none(), _WIDE_INTS),
    salts=st.lists(st.one_of(_WIDE_INTS, st.text(max_size=12)), max_size=8),
)
@example(seed=None, salts=[])
@example(seed=-1, salts=[2**64, 2**64 - 1, -(2**63), "é", "数据", ""])
@example(seed=2**64 + 7, salts=["jacobi", "lossy", "sz", "0.0001", "None", 2048, 0])
def test_derive_seed_matches_the_uint64_formula(seed, salts):
    assert derive_seed(seed, *salts) == _uint64_derive_seed(seed, *salts)
