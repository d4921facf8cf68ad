"""Frozen v2 payload bytes — today's writers must keep writing them.

``test_frozen_v1_payloads.py`` pins only what old payloads reconstruct to;
nothing else pins the bytes an RSF2 (v2) writer produces.  Checkpoint
payloads size the simulated write time and key content-addressed stores,
so a writer refactor that moves one byte changes results.  The SHA-256
digests below were taken from the writers as they stood when the shard
thread pool and the LZMA codec were deleted, for fixed seeded inputs:

* the lossless ``zlib`` compressor (byte shuffle + one frame),
* SZ under a pointwise-relative and an absolute bound (the latter on a
  3-D grid, so the stencil predictor and its header trailer are covered),
* ZFP under an absolute bound,
* one bare :func:`compress_sections` frame whose first section spans two
  shards, with zero, raw and DEFLATE shards in it.

Regenerating these is never correct: a digest that moves means written
bytes moved, and every stored payload and golden report with them.
"""

import hashlib

import numpy as np
import pytest

from repro.compression.errorbounds import ErrorBound
from repro.compression.lossless import ZlibCompressor
from repro.compression.sharded import SHARD_SIZE, compress_sections
from repro.compression.sz import SZCompressor
from repro.compression.zfp import ZFPCompressor


def _iterate(n: int, seed: int) -> np.ndarray:
    """A smooth field with small noise: the shape of a solver iterate."""
    grid = np.linspace(0.0, 4.0 * np.pi, n)
    noise = np.random.default_rng(seed).normal(0.0, 1e-3, n)
    return 1.5 + np.sin(grid) + 0.25 * np.cos(3.0 * grid) + noise


def _multi_shard_sections() -> list:
    rng = np.random.default_rng(49)
    runs = np.repeat(rng.integers(0, 4, (SHARD_SIZE + SHARD_SIZE // 2) // 64), 64)
    runs = runs.astype(np.uint8)
    runs[SHARD_SIZE // 4:SHARD_SIZE // 2] = 0
    noise = rng.integers(0, 256, 20000).astype(np.uint8)
    return [runs, noise, np.zeros(3000, dtype=np.uint8), b"header"]


def _payloads() -> dict:
    vector = _iterate(6000, 2018)
    cube = _iterate(16**3, 7).reshape(16, 16, 16)
    sections = _multi_shard_sections()
    assert sections[0].size > SHARD_SIZE
    return {
        "zlib": lambda: ZlibCompressor().compress(vector).payload,
        "sz-pw_rel": lambda: SZCompressor(1e-4).compress(vector).payload,
        "sz-abs": lambda: SZCompressor(ErrorBound("abs", 1e-4)).compress(cube).payload,
        "zfp-abs": lambda: ZFPCompressor(ErrorBound("abs", 1e-5)).compress(vector).payload,
        "frame-multi-shard": lambda: compress_sections(sections, level=6),
    }


_DIGESTS = {
    "zlib": (
        "bcb19aa0ed3538d2ed33ce3e00123f3f"
        "6e53ad0999188b45fd900856a83dd9a6"
    ),
    "sz-pw_rel": (
        "273c6cdfd051a1f5de9cbe62c459f305"
        "76219624d39b256f26334d71193cd31f"
    ),
    "sz-abs": (
        "56d75bb3f9440e930ea1a156b1ffa0e3"
        "ed719bdb53ce0152c4a86650efe4f53d"
    ),
    "zfp-abs": (
        "dfffdacf6fe4fb735cc9e23e5fdf661f"
        "4324bc48d3036620bcc11d3ff877a148"
    ),
    "frame-multi-shard": (
        "dfffb441e6dbaa0e8b15295becc2414a"
        "8cf8df1f900587bf2bc4f49c71ffd173"
    ),
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_written_bytes_are_frozen(name):
    payload = _payloads()[name]()
    assert hashlib.sha256(payload).hexdigest() == _DIGESTS[name]
