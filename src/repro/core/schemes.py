"""Checkpointing schemes: traditional, lossless-compressed, lossy-compressed.

A scheme bundles everything the fault-tolerance runner needs to know about
*how* to checkpoint:

* which compressor to run the dynamic variables through (identity for
  traditional checkpointing, DEFLATE for lossless, SZ-like/ZFP-like for
  lossy),
* whether the extra Krylov state of non-restarted CG (direction vector ``p``
  and scalar ``rho``) must be checkpointed as well — the paper checkpoints
  ``x`` *and* ``p`` under traditional/lossless checkpointing (Algorithm 1)
  but only ``x`` under lossy checkpointing (Algorithm 2, restarted CG),
* the error-bound policy
  (:class:`~repro.compression.errorbounds.ErrorBoundPolicy`): a fixed
  pointwise-relative bound (Jacobi and CG use ``1e-4``), a value-range
  relative bound, the residual-adaptive Theorem-3 policy (the paper's GMRES
  setting), or a per-variable composition of those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.compression.base import Compressor, make_compressor
from repro.compression.errorbounds import (
    ErrorBound,
    ErrorBoundPolicy,
    make_bound_policy,
)
from repro.solvers import CHECKPOINT_SPECS, IterativeSolver

__all__ = ["CheckpointingScheme"]


@dataclass
class CheckpointingScheme:
    """Configuration of one checkpointing strategy.

    Instances are usually created through the :meth:`traditional`,
    :meth:`lossless` and :meth:`lossy` constructors, which encode the paper's
    three evaluated schemes.
    """

    name: str
    compressor_factory: Callable[[], Compressor]
    lossy: bool = False
    #: Checkpoint CG's direction vector and rho so the Krylov sequence can be
    #: resumed exactly (the paper's Algorithm 1).  Lossy schemes set this to
    #: False and restart from ``x`` only (Algorithm 2).
    checkpoint_krylov_state: bool = True
    #: Error-bound selection policy applied at every checkpoint; only
    #: meaningful for lossy schemes (exact schemes carry no bound).  ``None``
    #: keeps the compressor's configured bound untouched.
    bound_policy: Optional[ErrorBoundPolicy] = None
    #: Extra metadata carried into reports.
    description: str = ""
    _cached_compressor: Optional[Compressor] = field(
        default=None, repr=False, compare=False
    )
    #: Last (mode, value) bound resolved by :meth:`checkpoint_compressor` and
    #: the compressor built for it.  Adaptive policies re-resolve every
    #: checkpoint but the bound often repeats (steady residual, or the bench
    #: hammering one state), and building a fresh compressor per snapshot is
    #: measurable on the pipeline hot path.
    _cached_bound_compressor: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The ``lossy()`` constructor below shadows the field's ``False``
        # default in the class namespace, so an omitted ``lossy=`` arrives
        # here as that (truthy) bound method, not as ``False``.
        if not isinstance(self.lossy, bool):
            raise TypeError(
                "CheckpointingScheme needs an explicit lossy=True/False "
                f"(got {type(self.lossy).__name__}); use the traditional()/"
                "lossless()/lossy() constructors"
            )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def traditional(cls) -> "CheckpointingScheme":
        """No compression; checkpoint every dynamic variable exactly."""
        return cls(
            name="traditional",
            compressor_factory=lambda: make_compressor("none"),
            lossy=False,
            checkpoint_krylov_state=True,
            description="uncompressed checkpoints of all dynamic variables",
        )

    @classmethod
    def lossless(cls, *, level: int = 2) -> "CheckpointingScheme":
        """Lossless (Gzip-like) compression of all dynamic variables."""
        return cls(
            name="lossless",
            compressor_factory=lambda: make_compressor("zlib", level=level),
            lossy=False,
            checkpoint_krylov_state=True,
            description="lossless (zlib) compressed checkpoints",
        )

    @classmethod
    def lossy(
        cls,
        error_bound: "ErrorBound | float" = 1e-4,
        *,
        compressor: str = "sz",
        adaptive: bool = False,
        safety_factor: float = 1.0,
        bound_policy: "ErrorBoundPolicy | str | None" = None,
    ) -> "CheckpointingScheme":
        """Error-bounded lossy compression of the solution vector only.

        Parameters
        ----------
        error_bound:
            Fixed pointwise-relative bound (ignored at checkpoint time when
            an adaptive policy resolves a bound, but still used as the
            initial/default bound).
        compressor:
            ``"sz"`` (prediction-based, the paper's choice) or ``"zfp"``
            (transform-based ablation).
        adaptive:
            Shorthand for ``bound_policy="residual_adaptive"`` — the
            Theorem-3 policy ``eb = ||r||/||b||`` at every checkpoint (the
            paper's GMRES setting).
        bound_policy:
            Explicit :class:`~repro.compression.errorbounds.ErrorBoundPolicy`
            instance or registered policy name (``"fixed"``,
            ``"value_range"``, ``"residual_adaptive"``).  Defaults to the
            fixed policy at ``error_bound``.
        """
        if compressor not in ("sz", "zfp"):
            raise ValueError(f"lossy compressor must be 'sz' or 'zfp', got {compressor!r}")
        factory = lambda: make_compressor(compressor, error_bound=error_bound)  # noqa: E731
        if bound_policy is None:
            bound_policy = "residual_adaptive" if adaptive else "fixed"
        if isinstance(bound_policy, str):
            bound_policy = make_bound_policy(
                bound_policy, error_bound=error_bound, safety_factor=safety_factor
            )
        return cls(
            name="lossy",
            compressor_factory=factory,
            lossy=True,
            checkpoint_krylov_state=False,
            bound_policy=bound_policy,
            description=f"lossy ({compressor}) checkpoints, {bound_policy.describe()} bound",
        )

    # -- helpers -----------------------------------------------------------------
    @property
    def uses_compression(self) -> bool:
        """True when a (lossless or lossy) compression stage is modeled."""
        return self.name != "traditional"

    def compressor(self) -> Compressor:
        """The (cached) compressor instance for this scheme."""
        if self._cached_compressor is None:
            self._cached_compressor = self.compressor_factory()
        return self._cached_compressor

    def checkpoint_compressor(
        self,
        *,
        residual_norm: Optional[float] = None,
        b_norm: Optional[float] = None,
        variable: str = "x",
    ) -> Compressor:
        """Compressor to use for ``variable`` at the next checkpoint.

        Resolves the scheme's :attr:`bound_policy` against the current solver
        state (Theorem-3 adaptive bounds need the residual information); a
        policy that abstains — or a compressor without error bounds — leaves
        the base compressor untouched.
        """
        base = self.compressor()
        if self.bound_policy is None or not hasattr(base, "with_error_bound"):
            return base
        bound = self.bound_policy.resolve(
            variable=variable, residual_norm=residual_norm, b_norm=b_norm
        )
        if bound is None:
            return base
        key = (variable, bound.mode, bound.value)
        cached = self._cached_bound_compressor
        if cached is not None and cached[0] == key:
            return cached[1]
        compressor = base.with_error_bound(bound)
        self._cached_bound_compressor = (key, compressor)
        return compressor

    def dynamic_vector_count(self, method: "Union[str, IterativeSolver]") -> int:
        """How many full-length dynamic vectors this scheme checkpoints.

        Derived from the solver's ``CheckpointableState`` declaration
        (:attr:`~repro.solvers.base.IterativeSolver.checkpoint_spec`) rather
        than a per-method special case: under exact schemes the count is
        ``x`` plus every extra vector the solver says an exact checkpoint
        must store (CG: ``p`` → 2; BiCGSTAB: ``r``/``r_hat``/``p``/``v`` → 5;
        GMRES and Jacobi: just ``x`` → 1), so the modeled checkpoint sizes
        (Table 3) always match what is actually stored.  The lossy restarted
        scheme checkpoints only ``x`` (Algorithm 2).

        Accepts either a solver instance or a method name of
        :data:`repro.axes.METHODS`; any other name raises ``KeyError``.
        """
        if isinstance(method, IterativeSolver):
            spec = method.checkpoint_spec
        else:
            spec = CHECKPOINT_SPECS[method]
        if not self.checkpoint_krylov_state or not spec.exact_resume:
            return 1
        return spec.vector_count
