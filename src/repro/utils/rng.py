"""Deterministic random-number-generator helpers.

Every stochastic component in the library (failure injection, synthetic matrix
generation, random right-hand sides, the Fig. 2 random-restart experiment)
takes an explicit seed or :class:`numpy.random.Generator` so that experiments
are reproducible run-to-run.  These helpers centralise the seed-handling
conventions.

NumPy is imported only by the generator factories: :func:`derive_seed` is
plain integer arithmetic, so the campaign front end can expand a grid's cell
seeds without loading any numerics.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[None, int, "np.random.SeedSequence", "np.random.Generator"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer, a ``SeedSequence`` or an
    existing ``Generator`` (returned unchanged), mirroring NumPy's own
    ``default_rng`` but tolerant of already-constructed generators so that
    call-sites can simply forward whatever they were given.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> Sequence[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed.

    Used by trial-based experiments (e.g. the Fig. 2 extra-iteration study and
    the Fig. 10 failure-injection runs) so each trial gets an independent
    stream while the whole experiment remains reproducible from a single seed.
    """
    import numpy as np

    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive child seeds from the generator itself.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(seed: Optional[int], *salts: "int | str") -> int:
    """Mix ``seed`` with ``salts`` (integers or strings) into a new 63-bit seed.

    Deterministic and order-sensitive; used to give sub-experiments (e.g. one
    per process count, method or scheme) distinct but reproducible seeds.
    String salts are hashed with CRC32 so the result does not depend on
    Python's per-process hash randomisation.  Every step is taken modulo
    2**64, so the result matches the same mix computed in ``uint64``.
    """
    state = 0x9E3779B97F4A7C15
    values = [0 if seed is None else int(seed)] + [
        zlib.crc32(s.encode("utf-8")) if isinstance(s, str) else int(s) for s in salts
    ]
    for value in values:
        state = (state ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state ^= state >> 31
    return state & 0x7FFFFFFFFFFFFFFF
