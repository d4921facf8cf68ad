"""Error-bound specifications and selection policies for lossy compression.

The paper controls distortion with *relative* error bounds: for the CG and
Jacobi experiments ``|x_i - x'_i| <= eb * |x_i|`` with ``eb = 1e-4``
(pointwise relative), and for GMRES an adaptive bound
``eb = O(||r^(t)|| / ||b||)`` (Theorem 3).  SZ and ZFP additionally support
absolute and value-range-relative bounds.  :class:`ErrorBound` captures all
three modes and knows how to resolve itself against a concrete array.

:class:`ErrorBoundPolicy` generalizes *how the bound is chosen* at checkpoint
time.  The paper treats this per method (fixed ``1e-4`` for Jacobi/CG, the
Theorem-3 residual-adaptive bound for GMRES); the policy protocol makes the
choice a first-class, pluggable object on the checkpointing scheme so any
solver can be paired with any policy.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.axes import BOUND_POLICIES

__all__ = [
    "ErrorBoundMode",
    "ErrorBound",
    "ErrorBoundPolicy",
    "FixedBoundPolicy",
    "ValueRangeBoundPolicy",
    "ResidualAdaptiveBoundPolicy",
    "BOUND_POLICIES",
    "make_bound_policy",
]


class ErrorBoundMode(str, enum.Enum):
    """How the scalar bound value is interpreted against the data."""

    #: ``|x - x'| <= value`` for every element.
    ABSOLUTE = "abs"
    #: ``|x - x'| <= value * (max(x) - min(x))`` for every element.
    VALUE_RANGE_RELATIVE = "rel"
    #: ``|x - x'| <= value * |x|`` for every element (the paper's setting).
    POINTWISE_RELATIVE = "pw_rel"


@dataclass(frozen=True)
class ErrorBound:
    """A (mode, value) pair describing the allowed per-element distortion."""

    mode: ErrorBoundMode
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ErrorBoundMode(self.mode))
        value = float(self.value)
        if not np.isfinite(value) or value <= 0.0:
            raise ValueError(f"error-bound value must be positive and finite, got {value}")
        object.__setattr__(self, "value", value)

    # -- constructors ------------------------------------------------------
    @classmethod
    def pointwise_relative(cls, value: float) -> "ErrorBound":
        """Pointwise relative bound (the paper's ``eb``)."""
        return cls(ErrorBoundMode.POINTWISE_RELATIVE, value)

    # -- resolution --------------------------------------------------------
    def absolute_for(self, data: np.ndarray) -> float:
        """Resolve to a single absolute bound for ``data``.

        For the pointwise-relative mode this returns the *tightest* absolute
        bound (``value * min|x|`` over nonzero entries), which is what a
        compressor without native pointwise support must use to stay correct.
        """
        data = np.asarray(data, dtype=np.float64)
        if self.mode is ErrorBoundMode.ABSOLUTE:
            return self.value
        if self.mode is ErrorBoundMode.VALUE_RANGE_RELATIVE:
            if data.size == 0:
                return self.value
            value_range = float(np.max(data) - np.min(data))
            if value_range == 0.0:
                # Constant data: any positive bound preserves it exactly.
                return self.value * max(abs(float(data.flat[0])), 1.0)
            return self.value * value_range
        # POINTWISE_RELATIVE
        if data.size == 0:
            return self.value
        magnitudes = np.abs(data[data != 0.0])
        if magnitudes.size == 0:
            return self.value
        return self.value * float(np.min(magnitudes))

    def per_element(self, data: np.ndarray) -> np.ndarray:
        """Resolve to a per-element absolute tolerance array for ``data``."""
        data = np.asarray(data, dtype=np.float64)
        if self.mode is ErrorBoundMode.POINTWISE_RELATIVE:
            return self.value * np.abs(data)
        return np.full(data.shape, self.absolute_for(data), dtype=np.float64)

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return f"{self.mode.value}={self.value:g}"


class ErrorBoundPolicy(abc.ABC):
    """How a checkpoint chooses the error bound for one compressed variable.

    ``resolve`` is called once per lossily-compressed variable of a
    checkpoint; returning ``None`` means "keep the compressor's configured
    bound" (e.g. a residual-adaptive policy asked to compress before any
    residual information exists).  Policies are small immutable value objects
    so they can ride on (hashable, cache-key-friendly) scheme descriptions.
    """

    #: Registry name; subclasses override (used as a campaign-grid axis).
    name: str = "abstract"

    @abc.abstractmethod
    def resolve(
        self,
        *,
        variable: str = "x",
        residual_norm: Optional[float] = None,
        b_norm: Optional[float] = None,
    ) -> Optional[ErrorBound]:
        """The bound for ``variable`` given the current solver state."""

    def describe(self) -> str:
        """Human-readable description used in scheme/report summaries."""
        return self.name


@dataclass(frozen=True)
class FixedBoundPolicy(ErrorBoundPolicy):
    """The paper's Jacobi/CG setting: one fixed bound for every checkpoint."""

    bound: ErrorBound = field(
        default_factory=lambda: ErrorBound.pointwise_relative(1e-4)
    )
    name = "fixed"

    def __post_init__(self) -> None:
        if not isinstance(self.bound, ErrorBound):
            object.__setattr__(
                self, "bound", ErrorBound.pointwise_relative(float(self.bound))
            )

    def resolve(self, *, variable="x", residual_norm=None, b_norm=None):
        return self.bound

    def describe(self) -> str:
        return f"fixed({self.bound.describe()})"


@dataclass(frozen=True)
class ValueRangeBoundPolicy(ErrorBoundPolicy):
    """SZ's ``REL`` mode: bound relative to each variable's value range."""

    value: float = 1e-4
    name = "value_range"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def resolve(self, *, variable="x", residual_norm=None, b_norm=None):
        return ErrorBound(ErrorBoundMode.VALUE_RANGE_RELATIVE, self.value)

    def describe(self) -> str:
        return f"value_range({self.value:g})"


@dataclass(frozen=True)
class ResidualAdaptiveBoundPolicy(ErrorBoundPolicy):
    """Theorem 3's residual-adaptive bound ``eb = safety * ||r|| / ||b||``.

    The clip keeps the bound inside what error-bounded compressors handle
    robustly; the lower clip matters late in the run when the residual sits
    at the convergence threshold.  Without residual information the policy
    abstains (returns ``None``) so the compressor's configured default bound
    applies — matching the paper's use of the fixed bound for the very first
    characterization checkpoints.
    """

    safety_factor: float = 1.0
    min_bound: float = 1e-12
    max_bound: float = 1e-1
    name = "residual_adaptive"

    def bound_value(self, residual_norm: float, b_norm: float) -> float:
        """The scalar pointwise-relative bound for the current residual."""
        if residual_norm < 0:
            raise ValueError(f"residual_norm must be >= 0, got {residual_norm}")
        if b_norm <= 0:
            raise ValueError(f"b_norm must be > 0, got {b_norm}")
        if self.safety_factor <= 0:
            raise ValueError(f"safety_factor must be > 0, got {self.safety_factor}")
        raw = self.safety_factor * residual_norm / b_norm
        # Scalar clamp without np.clip: this runs once per checkpoint on the
        # snapshot hot path and the ufunc dispatch costs more than the math.
        return min(max(float(raw), self.min_bound), self.max_bound)

    def error_bound(self, residual_norm: float, b_norm: float) -> ErrorBound:
        """Same as :meth:`bound_value` but wrapped as an :class:`ErrorBound`."""
        return ErrorBound.pointwise_relative(self.bound_value(residual_norm, b_norm))

    def resolve(self, *, variable="x", residual_norm=None, b_norm=None):
        if residual_norm is None or b_norm is None:
            return None
        return self.error_bound(residual_norm, b_norm)

    def describe(self) -> str:
        return f"residual_adaptive(safety={self.safety_factor:g})"


_POLICY_FACTORIES: Dict[str, Callable[..., ErrorBoundPolicy]] = {
    "fixed": lambda error_bound=1e-4, **_: FixedBoundPolicy(
        error_bound
        if isinstance(error_bound, ErrorBound)
        else ErrorBound.pointwise_relative(float(error_bound))
    ),
    "value_range": lambda error_bound=1e-4, **_: ValueRangeBoundPolicy(
        float(error_bound)
    ),
    "residual_adaptive": lambda safety_factor=1.0, **_: ResidualAdaptiveBoundPolicy(
        safety_factor=float(safety_factor)
    ),
}


def make_bound_policy(name: str, **kwargs) -> ErrorBoundPolicy:
    """Instantiate a registered error-bound policy by name.

    ``error_bound`` parameterizes the fixed/value-range policies;
    ``safety_factor`` the residual-adaptive one.  Unknown keyword arguments
    are ignored so one call site can pass the full cell configuration.
    """
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown error-bound policy {name!r}; known: {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory(**kwargs)
