"""Common solver infrastructure: results, convergence tests, callbacks.

Design notes
------------
The fault-tolerance layer (``repro.core``) drives solvers through a
*per-iteration callback*: the callback receives an :class:`IterationState`
(iteration index, a copy of the current approximate solution and the current
residual norm) and may raise :class:`SolverInterrupt` to stop the solve —
that is how an injected failure "kills" the execution.  After a (possibly
lossy) recovery the runner simply calls ``solve`` again with the recovered
vector as the new initial guess, which is exactly the restarted-CG /
restarted-GMRES scheme the paper adopts (Section 4.2).
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from functools import cached_property
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.precond.base import IdentityPreconditioner, Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.utils.validation import check_positive, check_square_matrix, check_vector

__all__ = [
    "ConvergenceCriterion",
    "IterationState",
    "SolveResult",
    "SolverInterrupt",
    "IterativeSolver",
    "CheckpointSpec",
    "ResumeState",
]


class SolverInterrupt(Exception):
    """Raised from a callback to stop a solve (e.g. an injected failure).

    Attributes
    ----------
    iteration:
        The iteration index at which the solve was interrupted.
    """

    def __init__(self, iteration: int, message: str = "solver interrupted") -> None:
        super().__init__(message)
        self.iteration = int(iteration)


@dataclass(frozen=True)
class ConvergenceCriterion:
    """PETSc-style convergence test ``||r|| <= max(rtol * ||b||, atol)``.

    ``rtol`` is the relative tolerance the paper quotes per method
    (1e-4 Jacobi, 7e-5 GMRES, 1e-7 CG); ``atol`` is an absolute floor;
    ``divtol`` flags divergence when the residual grows by that factor over
    the reference norm.
    """

    rtol: float = 1e-5
    atol: float = 0.0
    divtol: float = 1e8

    def __post_init__(self) -> None:
        check_positive(self.rtol, "rtol")
        if self.atol < 0:
            raise ValueError(f"atol must be non-negative, got {self.atol}")
        check_positive(self.divtol, "divtol")

    def threshold(self, b_norm: float) -> float:
        """Absolute residual-norm threshold for right-hand-side norm ``b_norm``."""
        return max(self.rtol * b_norm, self.atol)

    def has_converged(self, residual_norm: float, b_norm: float) -> bool:
        """True when the residual satisfies the tolerance."""
        return residual_norm <= self.threshold(b_norm)

    def has_diverged(self, residual_norm: float, b_norm: float) -> bool:
        """True when the residual exceeds the divergence guard."""
        reference = b_norm if b_norm > 0 else 1.0
        return not np.isfinite(residual_norm) or residual_norm > self.divtol * reference


@dataclass
class IterationState:
    """Snapshot handed to per-iteration callbacks."""

    iteration: int
    x: np.ndarray
    residual_norm: float
    extras: Dict[str, object] = field(default_factory=dict)


Callback = Callable[[IterationState], None]


@dataclass
class SolveResult:
    """Outcome of one ``solve`` call."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: List[float]
    solver: str
    b_norm: float
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def final_residual_norm(self) -> float:
        """Residual norm at the last recorded iteration."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")

    @property
    def relative_residual(self) -> float:
        """Final residual norm divided by ``||b||`` (or itself if ``b`` is 0)."""
        if self.b_norm == 0:
            return self.final_residual_norm
        return self.final_residual_norm / self.b_norm


@dataclass(frozen=True)
class CheckpointSpec:
    """What a solver declares about its checkpointable state.

    This is the ``CheckpointableState`` protocol of the fault-tolerance
    engine: instead of the engine special-casing solver classes, every solver
    declares

    * which full-length *extra* vectors (beyond the iterate ``x``) an exact
      checkpoint must capture so the same Krylov sequence can be resumed
      (CG: ``p``; BiCGSTAB: ``r``, ``r_hat``, ``p``, ``v``),
    * which scalars ride along (CG: ``rho``; BiCGSTAB: ``rho_old``,
      ``alpha``, ``omega``),
    * whether the method can be resumed exactly at all, and
    * whether exact resume is only available at restart-cycle boundaries
      (GMRES(k): restarting from ``x`` at a cycle end *is* the exact
      continuation, so no extra vectors are needed).

    Stationary methods are memoryless (``x`` is the entire dynamic state), so
    they declare exact resume with no extra vectors.  The modeled checkpoint
    footprint of a scheme is derived from this declaration
    (:meth:`repro.core.schemes.CheckpointingScheme.dynamic_vector_count`), so
    Table 3's sizes always match what an exact checkpoint actually stores.
    """

    extra_vectors: Tuple[str, ...] = ()
    scalars: Tuple[str, ...] = ()
    exact_resume: bool = False
    restart_boundary_only: bool = False
    #: True when resuming from a captured state reproduces the uninterrupted
    #: iteration sequence *bit for bit* — not merely up to rounding.  The
    #: trajectory-replay cache (:mod:`repro.engine.replay`) retains every
    #: 16th state of a phase that starts a solve for solvers that declare this
    #: without ``restart_boundary_only``, and catches up from the nearest one.
    #: For the rest it retains every state of such a phase (up to a byte
    #: bound), and beyond those re-executes from the phase start, which is
    #: always bitwise (same call, same arguments).  CG declares ``False``:
    #: its resume recomputes ``r = b - A x`` from the restored iterate, which
    #: perturbs the recurrence residual in the last bits.
    bitwise_resume: bool = False

    @property
    def vector_count(self) -> int:
        """Full-length vectors an exact checkpoint stores (``x`` included)."""
        return 1 + len(self.extra_vectors)


@dataclass
class ResumeState:
    """Exact-resume payload captured at a checkpoint.

    ``vectors``/``scalars`` hold the entries named by the solver's
    :class:`CheckpointSpec`; passing the state back to :meth:`IterativeSolver.
    solve` via ``resume_state`` continues the interrupted Krylov sequence
    (together with ``x0`` set to the checkpointed iterate).
    """

    iteration: int
    vectors: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)


class IterativeSolver(abc.ABC):
    """Base class for all iterative solvers.

    Parameters
    ----------
    A:
        Square sparse system matrix.
    preconditioner:
        Optional :class:`~repro.precond.base.Preconditioner`; identity if None.
    rtol, atol, max_iter:
        Convergence controls (see :class:`ConvergenceCriterion`).
    """

    name: str = "abstract"
    #: The solver's ``CheckpointableState`` declaration (see
    #: :class:`CheckpointSpec`).  Subclasses override the class attribute.
    checkpoint_spec: ClassVar[CheckpointSpec] = CheckpointSpec()
    #: Trajectory recorder installed by :meth:`recording`; when set, every
    #: state ``_emit`` produces flows through ``recorder.on_iteration`` before
    #: the caller's callback, and a completed ``_solve`` reports its
    #: :class:`SolveResult` via ``recorder.on_result``.  This is the recording
    #: hook of the trajectory-replay cache (:mod:`repro.engine.replay`).
    _trajectory_recorder = None

    def __init__(
        self,
        A,
        *,
        preconditioner: Optional[Preconditioner] = None,
        rtol: float = 1e-5,
        atol: float = 0.0,
        max_iter: int = 10000,
    ) -> None:
        self.A = check_square_matrix(A)
        self.n = self.A.shape[0]
        self.matvec = self._bind_matvec()
        self.preconditioner = preconditioner or IdentityPreconditioner(self.A)
        if self.preconditioner.n != self.n:
            raise ValueError("preconditioner size does not match the matrix")
        self.criterion = ConvergenceCriterion(rtol=rtol, atol=atol)
        max_iter = int(max_iter)
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.max_iter = max_iter

    # -- public API --------------------------------------------------------
    def solve(
        self,
        b: np.ndarray,
        *,
        x0: Optional[np.ndarray] = None,
        callback: Optional[Callback] = None,
        max_iter: Optional[int] = None,
        iteration_offset: int = 0,
        resume_state: Optional[ResumeState] = None,
    ) -> SolveResult:
        """Solve ``A x = b`` starting from ``x0`` (zero vector by default).

        ``iteration_offset`` shifts the iteration indices reported to the
        callback and in the result — used by the fault-tolerance runner so a
        restarted solve keeps counting from where the failed one stopped.

        ``resume_state`` (captured earlier by :meth:`capture_resume_state`)
        continues the exact iteration sequence from a checkpoint; solvers
        whose :attr:`checkpoint_spec` declares no extra state treat it as a
        plain (re)start from ``x0``, which for them *is* the exact
        continuation.  Solvers that do not support exact resume reject it.
        """
        if resume_state is not None and not self.checkpoint_spec.exact_resume:
            raise ValueError(
                f"{type(self).__name__} does not support exact resume; its "
                "checkpoint_spec declares exact_resume=False"
            )
        b = check_vector(b, "b")
        if b.size != self.n:
            raise ValueError(f"b has length {b.size}, expected {self.n}")
        if x0 is None:
            x0 = np.zeros(self.n, dtype=np.float64)
        else:
            x0 = check_vector(x0, "x0").copy()
            if x0.size != self.n:
                raise ValueError(f"x0 has length {x0.size}, expected {self.n}")
        limit = self.max_iter if max_iter is None else int(max_iter)
        if limit < 0:
            raise ValueError(f"max_iter must be >= 0, got {limit}")
        recorder = self._trajectory_recorder
        if recorder is not None:
            # The recorder observes each emitted state *before* the caller's
            # callback runs (a callback may raise SolverInterrupt — the
            # interrupted iteration still belongs to the recorded prefix).
            # A non-None wrapped callback also keeps solvers that only
            # materialize callback-visible state when a callback is present
            # (GMRES) on the exact execution path the recording replays.
            inner = callback

            def callback(state, _inner=inner, _recorder=recorder):
                _recorder.on_iteration(state)
                if _inner is not None:
                    _inner(state)

        self._resume_state = resume_state
        try:
            result = self._solve(
                b,
                x0,
                callback=callback,
                max_iter=limit,
                iteration_offset=int(iteration_offset),
            )
        finally:
            self._resume_state = None
        if recorder is not None:
            recorder.on_result(result)
        return result

    @cached_property
    def grid_shape(self) -> Optional[Tuple[int, ...]]:
        """The grid ``x`` lives on when ``A`` is a stencil operator, else None.

        Read off the matrix by :func:`repro.sparse.stencil_grid` once per
        solver instance; the checkpoint pipeline hands lossy compressors
        ``x`` in this shape so they can predict along every grid axis.
        """
        from repro.sparse import stencil_grid

        return stencil_grid(self.A)

    @contextmanager
    def recording(self, recorder):
        """Install ``recorder`` as this solver's trajectory recorder.

        ``recorder`` needs two methods: ``on_iteration(it_state)``, invoked
        for every emitted :class:`IterationState` ahead of the user callback,
        and ``on_result(result)``, invoked when ``_solve`` returns normally
        (an interrupted solve never reaches it — the caller sees the
        :class:`SolverInterrupt` instead).  Recorders do not nest; the replay
        session never re-enters a recorded solve.
        """
        if self._trajectory_recorder is not None:
            raise RuntimeError("a trajectory recorder is already installed")
        self._trajectory_recorder = recorder
        try:
            yield self
        finally:
            self._trajectory_recorder = None

    def resume_available(self, it_state: IterationState) -> bool:
        """Whether one iteration snapshot carries an exact-resume state.

        False when the solver does not support exact resume or the snapshot
        is missing a declared entry (e.g. a GMRES iteration that is not at a
        restart boundary).  Reads entry names and flags only, never a vector.
        """
        spec = self.checkpoint_spec
        extras = it_state.extras
        if not spec.exact_resume or (
            spec.restart_boundary_only
            and not bool(extras.get("cycle_end", False) or extras.get("converged", False))
        ):
            return False
        return all(name in extras for name in (*spec.extra_vectors, *spec.scalars))

    def capture_resume_state(self, it_state: IterationState) -> Optional[ResumeState]:
        """Capture the exact-resume state visible in one iteration snapshot.

        Returns ``None`` unless :meth:`resume_available`.  Vector entries are
        defensively copied — the returned state stays valid however long the
        checkpoint lives.
        """
        if not self.resume_available(it_state):
            return None
        spec, extras = self.checkpoint_spec, it_state.extras
        vectors = {v: np.array(extras[v], dtype=np.float64) for v in spec.extra_vectors}
        scalars = {name: float(extras[name]) for name in spec.scalars}
        return ResumeState(int(it_state.iteration), vectors, scalars)

    def _bind_matvec(self):
        """Bind the lowest-overhead exact ``A @ x`` available.

        ``A @ x`` on a small CSR matrix spends about half its time in
        scipy's ``__matmul__`` dispatch before reaching the C kernel.  The
        kernel (``csr_matvec``) computes ``y += A x`` over a zeroed output,
        which is exactly what the operator does internally, so binding it
        directly is bitwise-identical — iterates, residual histories, and
        therefore every downstream checkpoint payload are unchanged.  Any
        input the kernel binding cannot guarantee that equivalence for
        (non-float64, non-contiguous) falls back to the operator, and so does
        a :class:`~repro.sparse.csr.CSRMatrix`, whose NumPy kernel is exact.
        """
        A = self.A
        if A.dtype != np.float64 or isinstance(A, CSRMatrix):
            return A.__matmul__
        try:
            from scipy.sparse._sparsetools import csr_matvec
        except ImportError:  # pragma: no cover - scipy internals moved
            return A.__matmul__
        n_row, n_col = A.shape
        indptr, indices, data = A.indptr, A.indices, A.data

        def matvec(x: np.ndarray) -> np.ndarray:
            if x.dtype != np.float64 or x.ndim != 1 or not x.flags.c_contiguous:
                return A @ x
            y = np.zeros(n_row, dtype=np.float64)
            csr_matvec(n_row, n_col, indptr, indices, data, x, y)
            return y

        return matvec

    # -- subclass hook -------------------------------------------------------
    @abc.abstractmethod
    def _solve(
        self,
        b: np.ndarray,
        x0: np.ndarray,
        *,
        callback: Optional[Callback],
        max_iter: int,
        iteration_offset: int,
    ) -> SolveResult:
        """Run the iteration; inputs are validated."""

    # -- helpers for subclasses ----------------------------------------------
    def _emit(
        self,
        callback: Optional[Callback],
        iteration: int,
        x: np.ndarray,
        residual_norm: float,
        **extras,
    ) -> None:
        """Invoke the callback (if any) with a defensive copy of ``x``."""
        if callback is None:
            return
        callback(
            IterationState(
                iteration=iteration,
                x=x.copy(),
                residual_norm=float(residual_norm),
                extras=dict(extras),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, rtol={self.criterion.rtol}, "
            f"max_iter={self.max_iter})"
        )
