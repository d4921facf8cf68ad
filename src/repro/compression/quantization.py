"""Error-bounded linear-scaling quantization.

This is the numerical core shared by the SZ-like and ZFP-like compressors:
map floating-point values onto an integer grid of spacing ``2 * bound`` so
that reconstruction is guaranteed to stay within ``bound`` of the original,
then let the entropy stage (delta + zigzag + bit packing + DEFLATE) exploit
the smoothness of the resulting integer codes.

Quantizing onto a *global* grid (rather than quantizing prediction residuals
against previously-decompressed values, as the original SZ does) keeps the
whole pipeline vectorised — no per-element Python loop — while preserving the
error-bound guarantee and, for smooth data, essentially the same first-order
(Lorenzo) prediction gains: the delta of grid codes *is* the quantized Lorenzo
residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["quantize_absolute", "dequantize_absolute", "QuantizationOverflow"]

#: Largest admissible |code| before we refuse to quantize (guards int64 overflow).
_MAX_CODE = np.int64(2**62)


class QuantizationOverflow(RuntimeError):
    """Raised when the requested bound is too tight for integer quantization.

    Callers (the compressors) catch this and fall back to storing the block
    losslessly, so the user-visible error bound is still honoured.
    """


@dataclass(frozen=True)
class QuantizedArray:
    """Integer codes plus the grid spacing needed to reconstruct the data."""

    codes: np.ndarray
    quantum: float


def quantize_absolute(
    values: np.ndarray, bound: float, *, checked: bool = True, strict: bool = False
) -> QuantizedArray:
    """Quantize ``values`` so reconstruction error is at most ``bound``.

    Parameters
    ----------
    values:
        1-D float array (finite values only).
    bound:
        Positive absolute error bound.
    checked:
        Pass ``False`` to skip the finiteness scan when the caller already
        guarantees it (e.g. values produced by a transform that validated
        its own input); the scan is a full pass over the data.
    strict:
        Pass ``True`` to raise :class:`QuantizationOverflow` when some
        element is still reconstructed more than ``bound`` away after the
        grid-neighbour correction (its value sits within an ulp of a grid
        midpoint, so neither neighbour's rounded product is within the
        bound).  Without it such elements keep the half-ulp excess.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if not np.isfinite(bound) or bound <= 0:
        raise ValueError(f"bound must be positive and finite, got {bound}")
    if checked and values.size and not np.all(np.isfinite(values)):
        raise ValueError("cannot quantize non-finite values")
    quantum = 2.0 * bound
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    # Check representability on scalars first so no overflow warning is raised
    # for pathological bounds; the compressors catch this and fall back to
    # lossless storage.
    if max_abs > 0 and max_abs >= float(_MAX_CODE) * quantum:
        raise QuantizationOverflow(
            f"error bound {bound:g} is too tight relative to data magnitude "
            f"{max_abs:g} for 63-bit integer codes"
        )
    scratch = np.divide(values, quantum)
    np.rint(scratch, out=scratch)
    codes = scratch.astype(np.int64)
    # Rounding in the division can land on the wrong grid neighbour for
    # large-magnitude values (the quotient is off by an ulp), pushing the
    # reconstruction error past the bound.  Nudge offending codes one grid
    # step toward the value; the remaining error is then the irreducible
    # half-ulp of the reconstruction product itself, which ``strict`` refuses.
    # ``scratch`` holds the codes as exact floats (|code| < 2**62), so the
    # error reuses its memory; the product is the one the decoder computes.
    if codes.size:
        np.multiply(scratch, quantum, out=scratch)
        np.subtract(values, scratch, out=scratch)
        np.abs(scratch, out=scratch)
        bad = scratch > bound
        if np.any(bad):
            error = values - codes.astype(np.float64) * quantum
            step = np.where(error > 0, 1, -1).astype(np.int64)
            codes = np.where(bad, codes + step, codes)
            if strict:
                nudged = codes[bad].astype(np.float64) * quantum
                if np.any(np.abs(values[bad] - nudged) > bound):
                    raise QuantizationOverflow(
                        f"no grid point of spacing {quantum:g} reconstructs "
                        f"every value within {bound:g}"
                    )
    return QuantizedArray(codes=codes, quantum=quantum)


def dequantize_absolute(quantized: QuantizedArray) -> np.ndarray:
    """Reconstruct the float values from :func:`quantize_absolute` output."""
    values = quantized.codes.astype(np.float64)
    values *= quantized.quantum
    return values


def quantization_error(values: np.ndarray, quantized: QuantizedArray) -> Tuple[float, float]:
    """Return (max, mean) absolute reconstruction error — used by tests."""
    recon = dequantize_absolute(quantized)
    err = np.abs(np.asarray(values, dtype=np.float64) - recon)
    if err.size == 0:
        return 0.0, 0.0
    return float(np.max(err)), float(np.mean(err))
