"""Pointwise-relative error bounds via the logarithmic transform.

The paper's experiments bound the distortion *pointwise relative to each
element*: ``|x_i - x'_i| <= eb * |x_i|``.  A quantizer with a single absolute
step cannot honour that directly (small-magnitude elements would be
over-perturbed), so — exactly like SZ's ``PW_REL`` mode — we compress
``log|x|`` under an absolute bound of ``log(1 + eb)`` and keep the signs and
the exact-zero positions separately.  If the reconstructed logarithm ``y'``
satisfies ``|y' - y| <= log(1 + eb)`` then ``x' = sign(x) * exp(y')`` satisfies
``x' / x`` within ``[1/(1+eb), 1+eb]``, hence ``|x' - x| <= eb * |x|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PointwiseRelativeTransform", "reconstruct_from_masks"]

#: Relative safety margin absorbing exp/log round-off so the user-visible
#: bound is honoured exactly even after the transcendental round trip.
_SAFETY = 1e-9


@dataclass
class PointwiseRelativeTransform:
    """Forward/backward log transform for pointwise-relative compression.

    Attributes
    ----------
    log_values:
        ``log|x|`` for the nonzero elements, in original order.
    negative_mask:
        Boolean mask (over all elements) of strictly negative values.
    zero_mask:
        Boolean mask (over all elements) of exact zeros.
    log_bound:
        The absolute bound to use when compressing ``log_values``.
    """

    log_values: np.ndarray
    negative_mask: np.ndarray
    zero_mask: np.ndarray
    log_bound: float

    @classmethod
    def forward(cls, values: np.ndarray, eb: float) -> "PointwiseRelativeTransform":
        """Build the transform of ``values`` for pointwise relative bound ``eb``."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not np.isfinite(eb) or eb <= 0:
            raise ValueError(f"eb must be positive and finite, got {eb}")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("cannot transform non-finite values")
        zero_mask = values == 0.0
        negative_mask = values < 0.0
        # Gather the nonzeros only when there are zeros to drop.
        if zero_mask.any():
            magnitudes = values[~zero_mask]
            np.abs(magnitudes, out=magnitudes)
        else:
            magnitudes = np.abs(values.reshape(-1))
        log_values = np.log(magnitudes, out=magnitudes)
        log_bound = float(np.log1p(eb) * (1.0 - _SAFETY))
        return cls(
            log_values=log_values,
            negative_mask=negative_mask,
            zero_mask=zero_mask,
            log_bound=log_bound,
        )

    def backward(self, reconstructed_log: np.ndarray) -> np.ndarray:
        """Invert the transform given the (lossily) reconstructed logarithms."""
        reconstructed_log = np.asarray(reconstructed_log, dtype=np.float64)
        if reconstructed_log.shape != self.log_values.shape:
            raise ValueError(
                "reconstructed log array has wrong shape "
                f"{reconstructed_log.shape}, expected {self.log_values.shape}"
            )
        no_zeros = reconstructed_log.size == self.zero_mask.size
        return _signed_magnitudes(
            reconstructed_log, self.negative_mask, None if no_zeros else self.zero_mask
        )


def _signed_magnitudes(log_values, negative_mask, zero_mask) -> np.ndarray:
    """``exp`` of the logs on the nonzero slots, negated where ``negative_mask``.

    ``zero_mask=None`` means there are no zeros, so no scatter is needed.
    Negating in place matches multiplying by ``-1.0`` bit for bit.
    """
    magnitudes = np.exp(log_values)
    if zero_mask is None:
        result = magnitudes.reshape(negative_mask.shape)
    else:
        result = np.zeros(zero_mask.shape, dtype=np.float64)
        result[~zero_mask] = magnitudes
    np.negative(result, out=result, where=negative_mask)
    return result


def _unpack_mask(section: bytes, count: int) -> np.ndarray:
    """A boolean mask from its ``np.packbits`` bytes (0/1 bytes viewed as bool)."""
    return np.unpackbits(
        np.frombuffer(section, dtype=np.uint8), count=count
    ).view(bool)


def reconstruct_from_masks(
    log_recon: np.ndarray, neg_section: bytes, zero_section: bytes, count: int
) -> np.ndarray:
    """Rebuild the full array from reconstructed logs plus packed masks.

    The decode-side counterpart of serializing a transform's masks with
    ``np.packbits``; shared by the SZ-like and ZFP-like decoders.  When
    there is one log per element the zero mask is empty and never unpacked.
    """
    negative_mask = _unpack_mask(neg_section, count)
    if log_recon.size == count:
        return _signed_magnitudes(log_recon, negative_mask, None)
    zero_mask = _unpack_mask(zero_section, count)
    nonzero = count - int(np.count_nonzero(zero_mask))
    if log_recon.shape != (nonzero,):
        raise ValueError(
            "reconstructed log array has wrong shape "
            f"{log_recon.shape}, expected {(nonzero,)}"
        )
    return _signed_magnitudes(log_recon, negative_mask, zero_mask)
