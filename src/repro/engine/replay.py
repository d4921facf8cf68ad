"""Deterministic trajectory-replay cache for the fault-tolerance engine.

The engine re-executes real solver numerics after every modeled failure,
even though restores are deterministic: a phase that starts from the same
numeric state produces the same iterates bit for bit, so each distinct
iteration span only needs to be *computed* once — afterwards its residual
trajectory can be replayed against the virtual timeline without a single
matvec.

Key
---
A phase — one ``solver.solve(b, x0=..., resume_state=...)`` call — is keyed
by a BLAKE2b digest of its exact numeric start state (:func:`state_digest`):
the iterate bytes plus the resume vectors/scalars, salted with a fingerprint
of the solver configuration (class, matrix bytes, convergence criterion,
preconditioner action) and the right-hand side.  The iteration offset is a *label* — it
shifts reported indices but not the numerics — so it stays out of the key,
which is what lets a re-executed span after a rollback hit the recording of
the original execution.  The iteration budget is not hashed either: a hit
is served only when the recording's budget equals the phase's.

Only *finished* phases are kept.  A phase that a
:class:`~repro.solvers.base.SolverInterrupt` (the engine's failure signal) ends leaves no recording: the rollback
restarts from a checkpoint, not from the interrupted state, and after a
lossy restart every phase starts from its own distorted iterate, so a
repeat of an interrupted phase is rare.

Replay
------
A cache hit replays the recorded per-iteration residual norms through the
engine's compute callback as lazy :class:`_ReplayState` objects.  Scalars
and flags (``converged``, ``cycle_end``, ``rho`` …) are recorded per
iteration; which full vector states a recording retains depends on whether
the solver can resume bitwise mid-phase (its
:class:`~repro.solvers.base.CheckpointSpec`):

* **Boundary-only** (every phase): the states the engine captured at
  checkpoint boundaries, the phase's end state, and any state later
  materialized.  A boundary the recording did not capture (failure arrivals
  land at arbitrary iterations, and different scenarios place checkpoints
  differently) is *materialized* by a numeric catch-up from the nearest
  retained snapshot when the solver declares ``bitwise_resume``
  (stationary methods, BiCGSTAB; GMRES at cycle ends), else from the phase
  start.
* **Strided** or **dense**: a phase that starts a solve — iteration 0, no
  resume state, i.e. the failure-free baseline every run of a problem and
  every characterization replays — also keeps every :data:`_STRIDE`-th
  emitted state if every state resumes bitwise (stationary methods,
  BiCGSTAB), so a catch-up runs at most ``_STRIDE - 1`` iterations, and
  every emitted state otherwise (CG, whose resume recomputes
  ``r = b - A x``; GMRES), so a replayed boundary is read, not re-solved.
  These states are bounded by a share of the cache's byte budget
  (:data:`_DENSE_SHARE`).

Because replayed states carry the recorded bits, every downstream decision —
clock arithmetic, due times, failure draws, checkpoint payload
bytes — is unchanged, and reports stay byte-identical with the cache on or
off (pinned by the equivalence, golden-report and replay hypothesis
suites).

Every state the session hands the engine has a *position* — recording key,
budget, phase-local index — and equal positions hold bitwise-equal states.
The engine's payload memo of coded checkpoints
(:func:`get_global_snapshot_memo`) is keyed by it
(:meth:`ReplaySession.memo_key`), so a repeated checkpoint is served
without reading, hashing or catching up its state.

Bounds and escape hatch
-----------------------
Recordings and payloads live in two process-wide instances of one
:class:`LRUCache`, bounded in entries and measured bytes.  A replay holds a
reference to its recording, so an eviction mid-replay only makes a later
phase record again.  ``REPRO_REPLAY=off`` (or
``FaultToleranceEngine(replay=False)``) disables the whole mechanism, the
payload memo included.
"""

from __future__ import annotations

import hashlib
import os
import struct
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.solvers.base import (
    IterationState,
    IterativeSolver,
    ResumeState,
    SolveResult,
)

__all__ = [
    "REPLAY_ENV",
    "replay_enabled",
    "solver_fingerprint",
    "scheme_fingerprint",
    "state_digest",
    "LRUCache",
    "TrajectoryRecording",
    "RecordedStep",
    "ReplaySession",
    "get_global_cache",
    "get_global_snapshot_memo",
    "serve_payload",
]

#: Environment escape hatch: set to ``off``/``0``/``false``/``no``/
#: ``disabled`` to run every phase numerically.
REPLAY_ENV = "REPRO_REPLAY"
_OFF_VALUES = {"0", "off", "false", "no", "disabled"}

#: Fixed per-step bookkeeping estimate (list slot, dataclass, small dict).
_STEP_OVERHEAD_BYTES = 120

#: A dense or strided recording retains its states while they fit in
#: ``1/_DENSE_SHARE`` of its cache's byte budget (32 MiB of the default
#: 256 MiB); later states are retained at checkpoint boundaries only.
_DENSE_SHARE = 8

#: A strided recording retains every ``_STRIDE``-th emitted state.
_STRIDE = 16


def replay_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the replay switch: explicit ``override`` beats the env var."""
    if override is not None:
        return bool(override)
    return os.environ.get(REPLAY_ENV, "").strip().lower() not in _OFF_VALUES


# ---------------------------------------------------------------------------
# Solver identity
# ---------------------------------------------------------------------------

_FINGERPRINTS: "weakref.WeakKeyDictionary[IterativeSolver, bytes]" = (
    weakref.WeakKeyDictionary()
)


def _probe_vectors(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two deterministic, RNG-free probe vectors covering all components."""
    base = np.arange(n, dtype=np.float64)
    return np.cos(base), 1.0 / (base + 2.0)


def state_digest(
    x: np.ndarray,
    resume_state: Optional[ResumeState] = None,
    *,
    context: bytes = b"",
) -> bytes:
    """BLAKE2b digest of one exact numeric solver state.

    The digest covers the *numeric content* of a restart point — the iterate
    bytes plus any exact-resume vectors and scalars, in sorted-name order —
    under an optional caller-supplied ``context`` prefix (problem identity,
    right-hand side).  The iteration counter is deliberately excluded: it is
    a label on the timeline, not part of the numeric state, so a restore of
    checkpoint *k* and a restore of an identical iterate at a different
    offset hash the same.  This is the phase key of the trajectory-replay
    cache: two solves started from digest-equal states produce
    bitwise-identical trajectories.
    """
    h = hashlib.blake2b(context, digest_size=16)
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    if resume_state is not None:
        for name in sorted(resume_state.vectors):
            h.update(b"v:" + name.encode("utf-8") + b"\0")
            h.update(
                np.ascontiguousarray(
                    resume_state.vectors[name], dtype=np.float64
                ).tobytes()
            )
        for name in sorted(resume_state.scalars):
            h.update(b"s:" + name.encode("utf-8") + b"\0")
            h.update(struct.pack("<d", float(resume_state.scalars[name])))
    return h.digest()


def solver_fingerprint(solver: IterativeSolver) -> bytes:
    """Digest of everything that determines a solver's iteration trajectory.

    Covers the algorithm (class), the exact matrix bytes, the convergence
    criterion, the method-specific shape parameter of the built-in solvers
    (GMRES ``restart``) and the *action* of the
    preconditioner — probed on deterministic vectors, so differently
    configured preconditioners of the same class hash differently without
    the fingerprint having to know their parameters.  Cached per solver
    instance (the probe applies the preconditioner twice).
    """
    try:
        return _FINGERPRINTS[solver]
    except (KeyError, TypeError):
        pass
    h = hashlib.blake2b(digest_size=16)
    cls = type(solver)
    h.update(f"{cls.__module__}.{cls.__qualname__}".encode("utf-8"))
    A = solver.A.tocsr()
    h.update(struct.pack("<qq", *A.shape))
    h.update(np.asarray(A.indptr).tobytes())
    h.update(np.asarray(A.indices).tobytes())
    h.update(np.ascontiguousarray(A.data, dtype=np.float64).tobytes())
    crit = solver.criterion
    h.update(struct.pack("<ddd", crit.rtol, crit.atol, crit.divtol))
    restart = getattr(solver, "restart", None)
    if isinstance(restart, (int, float)):
        h.update(f"restart={restart!r}".encode("utf-8"))
    M = solver.preconditioner
    h.update(type(M).__qualname__.encode("utf-8"))
    for probe in _probe_vectors(solver.n):
        h.update(np.ascontiguousarray(M.solve(probe), dtype=np.float64).tobytes())
    digest = h.digest()
    try:
        _FINGERPRINTS[solver] = digest
    except TypeError:  # pragma: no cover - solver without weakref support
        pass
    return digest


# ---------------------------------------------------------------------------
# Recordings
# ---------------------------------------------------------------------------


@dataclass
class RecordedStep:
    """One recorded iteration: the residual norm plus the light extras.

    Vector-valued extras are *not* stored per step (that would retain the
    whole trajectory); only their names are, so lazy replay states can
    answer ``in``-checks and trigger materialization on access.  Light
    values (bools, floats) are immutable and stored by reference.
    """

    __slots__ = ("residual_norm", "light_extras", "vector_names")

    residual_norm: float
    light_extras: Dict[str, object]
    vector_names: Tuple[str, ...]


@dataclass
class TrajectoryRecording:
    """The replayable record of one solve phase.

    ``ended`` classifies how the recording stopped (``None`` while the
    phase runs; an interrupted phase is never cached):

    * ``"terminal"`` — ``_solve`` returned (converged, intrinsic breakdown/
      divergence, or budget-capped); replayable as-is for the same budget.
    * ``"opaque"`` — the solver's emissions were not 1:1 with its counted
      iterations (foreign solver); never replayed.

    ``snapshots`` maps phase-local iteration indices (1-based) to the full
    :class:`IterationState` captured there — every emitted state of a dense
    recording (up to its byte bound), the states the engine saw at
    checkpoint boundaries, the phase's end state, and any state later
    materialized by catch-up.
    """

    key: bytes
    limit: int
    solver_name: str
    start_x: np.ndarray
    start_resume: Optional[ResumeState]
    steps: List[RecordedStep] = field(default_factory=list)
    snapshots: Dict[int, IterationState] = field(default_factory=dict)
    ended: Optional[str] = None
    converged: bool = False
    final_x: Optional[np.ndarray] = None
    residual0: Optional[float] = None
    info: Dict[str, object] = field(default_factory=dict)

    def measure(self) -> int:
        """Approximate retained bytes (arrays dominate; structs estimated)."""
        total = self.start_x.nbytes + 64
        if self.start_resume is not None:
            total += sum(v.nbytes for v in self.start_resume.vectors.values())
            total += 8 * len(self.start_resume.scalars)
        if self.final_x is not None:
            total += self.final_x.nbytes
        total += len(self.steps) * _STEP_OVERHEAD_BYTES
        return total + sum(_state_bytes(snap) for snap in self.snapshots.values())


def _state_bytes(state: IterationState) -> int:
    """Retained bytes of one snapshot: ``x``, its vector extras, the struct."""
    total = state.x.nbytes + 64
    for value in state.extras.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


def _copy_state(it_state: IterationState) -> IterationState:
    """Decoupled copy of an iteration state (arrays owned by the recording)."""
    extras: Dict[str, object] = {}
    for name, value in it_state.extras.items():
        extras[name] = value.copy() if isinstance(value, np.ndarray) else value
    return IterationState(
        iteration=int(it_state.iteration),
        x=it_state.x.copy(),
        residual_norm=float(it_state.residual_norm),
        extras=extras,
    )


def _copy_resume(resume: Optional[ResumeState]) -> Optional[ResumeState]:
    if resume is None:
        return None
    return ResumeState(
        iteration=int(resume.iteration),
        vectors={name: v.copy() for name, v in resume.vectors.items()},
        scalars=dict(resume.scalars),
    )


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class LRUCache:
    """LRU map bounded both in entry count and in measured bytes.

    ``measure(value)`` sizes an entry when it is :meth:`put`; :meth:`grow`
    adds the bytes a live value retained since, without re-measuring it.
    The cache keeps the sizes, so its values carry no accounting of their
    own.  ``hits``/``misses`` count :meth:`get` outcomes.
    """

    def __init__(
        self, measure: Callable[[object], int], max_entries: int, max_bytes: int
    ) -> None:
        self.measure = measure
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or re-measure) ``value`` under ``key`` as the newest entry."""
        self._store(key, value, self.measure(value))

    def grow(self, key: Hashable, value: object, nbytes: int) -> None:
        """Account ``nbytes`` more retained by ``value`` since it was put.

        A value no longer held under ``key`` (evicted meanwhile) is put again.
        """
        entry = self._entries.get(key)
        if entry is None or entry[0] is not value:
            return self.put(key, value)
        self._store(key, value, entry[1] + nbytes)

    def _store(self, key: Hashable, value: object, nbytes: int) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self.total_bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self.total_bytes += nbytes
        while self._entries and (
            len(self._entries) > self.max_entries or self.total_bytes > self.max_bytes
        ):
            _, (_, evicted) = self._entries.popitem(last=False)
            self.total_bytes -= evicted
            self.evictions += 1


_MIB = 1024 * 1024

_GLOBAL_CACHE: Optional[LRUCache] = None


def get_global_cache() -> LRUCache:
    """The process-wide trajectory cache engines share by default."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = LRUCache(TrajectoryRecording.measure, 256, 256 * _MIB)
    return _GLOBAL_CACHE


# ---------------------------------------------------------------------------
# Checkpoint-payload memoization
# ---------------------------------------------------------------------------


def scheme_fingerprint(scheme) -> bytes:
    """Digest of a checkpointing scheme's observable payload behaviour.

    The scheme's dataclass fields do not pin everything that shapes payload
    bytes (a lossless zlib level or a lossy error bound live inside the
    compressor factory), so — like the preconditioner probe in
    :func:`solver_fingerprint` — the compressor is exercised on a
    deterministic vector at two residual levels and the resulting blobs are
    hashed.  Differently configured schemes of the same name hash
    differently without the fingerprint having to know their parameters.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(scheme.name.encode("utf-8"))
    h.update(scheme.description.encode("utf-8"))
    h.update(b"K" if scheme.checkpoint_krylov_state else b"k")
    h.update(b"L" if scheme.lossy else b"l")
    probe = np.cos(np.arange(257, dtype=np.float64) / 3.0)
    for residual_norm in (1.0, 1e-6):
        compressor = scheme.checkpoint_compressor(
            residual_norm=residual_norm, b_norm=1.0
        )
        blob, _ = compressor.compress_with_record(probe)
        h.update(blob.compressor.encode("utf-8") + b"\0")
        h.update(blob.payload)
    return h.digest()


#: Fixed per-entry bookkeeping estimate of a memoized payload.
_PAYLOAD_OVERHEAD_BYTES = 256


def _payload_bytes(snapshot) -> int:
    """Measured bytes of one memoized checkpoint payload."""
    return len(snapshot.payload) + _PAYLOAD_OVERHEAD_BYTES


_GLOBAL_SNAPSHOT_MEMO: Optional[LRUCache] = None


def get_global_snapshot_memo() -> LRUCache:
    """The process-wide memo of finished coded checkpoint payloads.

    Values are :class:`~repro.checkpoint.pipeline.PipelineSnapshot` objects
    keyed by trajectory position (:meth:`ReplaySession.memo_key`).  Payload
    bytes are never mutated and do not contain the checkpoint id, so one
    entry serves every id its position is checkpointed under.
    """
    global _GLOBAL_SNAPSHOT_MEMO
    if _GLOBAL_SNAPSHOT_MEMO is None:
        _GLOBAL_SNAPSHOT_MEMO = LRUCache(_payload_bytes, 4096, 128 * _MIB)
    return _GLOBAL_SNAPSHOT_MEMO


def serve_payload(
    memo: LRUCache, key: Optional[Hashable], checkpoint_id: int, build: Callable
):
    """The checkpoint payload at trajectory position ``key``: ``memo``'s,
    relabelled with ``checkpoint_id``, else ``build()``'s, stored.

    A state without a position (``key`` is ``None``) is built fresh and
    neither looked up nor stored, so it can never be served another's bytes.
    """
    if key is None:
        return build()
    cached = memo.get(key)
    if cached is not None:
        # Payload bytes hold no checkpoint id: relabel for this caller.
        return replace(cached, checkpoint_id=int(checkpoint_id))
    snapshot = build()
    memo.put(key, snapshot)
    return snapshot


# ---------------------------------------------------------------------------
# Recording / replaying one engine run
# ---------------------------------------------------------------------------


class _PhaseRecorder:
    """Collects a solve's emissions into a :class:`TrajectoryRecording`.

    ``dense_bytes`` is how many bytes of emitted states the recording may
    retain besides its boundary snapshots (0: boundary-only), one state in
    every ``stride``; the first state that does not fit ends that retention
    for the phase.
    """

    def __init__(self, rec: TrajectoryRecording) -> None:
        self.rec = rec
        self.dense_bytes = 0
        self.stride = 1
        self.last_state: Optional[IterationState] = None
        self.result: Optional[SolveResult] = None

    def on_iteration(self, it_state: IterationState) -> None:
        light: Dict[str, object] = {}
        vector_names: List[str] = []
        for name, value in it_state.extras.items():
            if isinstance(value, np.ndarray):
                vector_names.append(name)
            else:
                light[name] = value
        self.rec.steps.append(
            RecordedStep(
                residual_norm=float(it_state.residual_norm),
                light_extras=light,
                vector_names=tuple(vector_names),
            )
        )
        self.last_state = it_state
        if self.dense_bytes > 0 and len(self.rec.steps) % self.stride == 0:
            nbytes = _state_bytes(it_state)
            if nbytes > self.dense_bytes:
                self.dense_bytes = 0
            else:
                self.dense_bytes -= nbytes
                self.rec.snapshots[len(self.rec.steps)] = _copy_state(it_state)

    def on_result(self, result: SolveResult) -> None:
        self.result = result

    def note_snapshot(self, it_state: IterationState) -> None:
        """Retain the full state at an engine checkpoint boundary."""
        local = len(self.rec.steps)
        if local > 0 and local not in self.rec.snapshots:
            self.rec.snapshots[local] = _copy_state(it_state)

    def finalize(self, result: SolveResult) -> None:
        rec = self.rec
        if result.iterations != len(rec.steps):
            # Emissions were not 1:1 with counted iterations (a foreign
            # solver): the step list cannot stand in for the execution.
            rec.ended = "opaque"
            return
        rec.ended = "terminal"
        rec.converged = bool(result.converged)
        rec.final_x = np.array(result.x, dtype=np.float64, copy=True)
        rec.info = dict(result.info)
        if result.residual_norms:
            rec.residual0 = float(result.residual_norms[0])
        if self.last_state is not None:
            self.note_snapshot(self.last_state)


class _LazyExtras:
    """Mapping view over a recorded step's extras.

    Light values answer directly; vector values materialize the full state
    on first access (checkpoint boundaries only), so ``capture_resume_state``
    sees exactly what a numeric execution would have emitted.
    """

    __slots__ = ("_state", "_step")

    def __init__(self, state: "_ReplayState", step: RecordedStep) -> None:
        self._state = state
        self._step = step

    def __contains__(self, name: object) -> bool:
        return name in self._step.light_extras or name in self._step.vector_names

    def __getitem__(self, name: str) -> object:
        light = self._step.light_extras
        if name in light:
            return light[name]
        if name in self._step.vector_names:
            return self._state._full().extras[name]
        raise KeyError(name)

    def get(self, name: str, default: object = None) -> object:
        if name in self:
            return self[name]
        return default

    def keys(self):
        return list(self._step.light_extras) + list(self._step.vector_names)

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._step.light_extras) + len(self._step.vector_names)


class _ReplayState:
    """Duck-typed :class:`IterationState` served from a recording.

    ``iteration`` and ``residual_norm`` come straight from the recorded
    step; ``x`` (and vector extras) materialize lazily via the session's
    catch-up machinery — the engine only touches them at checkpoint
    boundaries the payload memo does not answer, which is the whole point of
    replay.
    """

    __slots__ = ("_session", "_rec", "_local", "_full_state", "iteration",
                 "residual_norm", "extras")

    def __init__(
        self,
        session: "ReplaySession",
        rec: TrajectoryRecording,
        local: int,
        iteration: int,
        step: RecordedStep,
    ) -> None:
        self._session = session
        self._rec = rec
        self._local = local
        self._full_state = None
        self.iteration = iteration
        self.residual_norm = step.residual_norm
        self.extras = _LazyExtras(self, step)

    def _full(self) -> IterationState:
        if self._full_state is None:
            self._full_state = self._session.materialize(self._rec, self._local)
        return self._full_state

    @property
    def x(self) -> np.ndarray:
        # A fresh copy per access, mirroring what ``_emit`` hands a numeric
        # callback — the caller owns it.
        return self._full().x.copy()


class ReplaySession:
    """Per-run front end of the trajectory cache.

    Owns the phase digests (solver fingerprint + right-hand side), decides
    record vs. replay per phase, names each state it hands the
    engine by its trajectory position (:meth:`memo_key`), materializes
    checkpoint-boundary states by bitwise numeric catch-up, and keeps the
    run's hit/saving counters for the benchmark artifact.
    """

    def __init__(
        self,
        solver: IterativeSolver,
        b: np.ndarray,
        *,
        cache: Optional[LRUCache] = None,
    ) -> None:
        self.solver = solver
        self.b = np.asarray(b, dtype=np.float64)
        self.cache = cache if cache is not None else get_global_cache()
        h = hashlib.blake2b(self.b.tobytes(), digest_size=16)
        self._context = solver_fingerprint(solver) + h.digest()
        # The same value every solver computes internally, for the
        # ``SolveResult`` a replay synthesizes.
        self.b_norm = float(np.linalg.norm(self.b))
        self.hits = 0
        self.misses = 0
        self.iterations_replayed = 0
        self.catchup_iterations = 0
        self._active_recorder: Optional[_PhaseRecorder] = None

    @property
    def iterations_saved(self) -> int:
        """Iterations served from the cache net of catch-up re-execution."""
        return max(0, self.iterations_replayed - self.catchup_iterations)

    @property
    def context(self) -> bytes:
        """Solver + right-hand-side digest every phase key is scoped by."""
        return self._context

    # -- engine entry points -------------------------------------------------
    def solve_phase(
        self,
        x0: np.ndarray,
        resume: Optional[ResumeState],
        iteration_offset: int,
        max_iter: Optional[int],
        callback: Callable[[IterationState], None],
    ) -> SolveResult:
        """Serve one engine phase: replay on a digest hit, record otherwise."""
        limit = self.solver.max_iter if max_iter is None else int(max_iter)
        key = state_digest(x0, resume, context=self._context)
        rec = self.cache.get(key)
        if rec is not None and self._replayable(rec, limit):
            self.hits += 1
            return self._replay(rec, iteration_offset, callback)
        self.misses += 1
        if rec is not None and rec.ended == "opaque":
            # Known non-replayable emitter: skip the recording overhead.
            return self.solver.solve(
                self.b,
                x0=x0,
                callback=callback,
                max_iter=max_iter,
                iteration_offset=iteration_offset,
                resume_state=resume,
            )
        return self._record(
            key, x0, resume, iteration_offset, max_iter, limit, callback
        )

    def memo_key(self, it_state, context: bytes, b_norm: float) -> Optional[tuple]:
        """Payload-memo key of a checkpoint of ``it_state`` under ``context``.

        Names the state by its trajectory position, not its bytes: recording
        key, budget (GMRES shapes its last cycle by it) and phase-local index
        — carried by a replayed state, the active recorder's newest step for a
        recorded one.  A state the session did not hand out gets ``None``.
        """
        if isinstance(it_state, _ReplayState):
            rec, local = it_state._rec, it_state._local
        else:
            recorder = self._active_recorder
            if recorder is None or recorder.last_state is not it_state:
                return None
            rec, local = recorder.rec, len(recorder.rec.steps)
        return (
            context, rec.key, rec.limit, local,
            int(it_state.iteration), float(it_state.residual_norm), float(b_norm),
        )

    @staticmethod
    def replayed(it_state) -> bool:
        """Whether ``it_state`` is served from a recording, its vectors read
        only by materializing them."""
        return isinstance(it_state, _ReplayState)

    def note_boundary_state(self, it_state) -> None:
        """A checkpoint boundary (or a characterization sample) saw this state.

        During recording the full state is retained so later
        replays of the same span find their boundaries without catch-up.
        No-op during pure replay — the served states already come from the
        recording.
        """
        recorder = self._active_recorder
        if recorder is not None and isinstance(it_state, IterationState):
            recorder.note_snapshot(it_state)

    # -- record --------------------------------------------------------------
    def _record(
        self,
        key: bytes,
        x0: np.ndarray,
        resume: Optional[ResumeState],
        iteration_offset: int,
        max_iter: Optional[int],
        limit: int,
        callback: Callable[[IterationState], None],
    ) -> SolveResult:
        rec = TrajectoryRecording(
            key=key,
            limit=limit,
            solver_name=self.solver.name,
            start_x=np.array(x0, dtype=np.float64, copy=True),
            start_resume=_copy_resume(resume),
        )
        # A phase that starts a solve is replayed by every run of the problem,
        # under every cadence: keep all its states where no catch-up is short,
        # every _STRIDE-th where any state resumes bitwise.
        recorder = _PhaseRecorder(rec)
        if resume is None and iteration_offset == 0:
            recorder.dense_bytes = self.cache.max_bytes // _DENSE_SHARE
            spec = self.solver.checkpoint_spec
            bitwise = spec.bitwise_resume and not spec.restart_boundary_only
            recorder.stride = _STRIDE if bitwise else 1
        self._active_recorder = recorder
        try:
            with self.solver.recording(recorder):
                # A SolverInterrupt propagates and the recording is dropped.
                result = self.solver.solve(
                    self.b,
                    x0=x0,
                    callback=callback,
                    max_iter=max_iter,
                    iteration_offset=iteration_offset,
                    resume_state=resume,
                )
        finally:
            self._active_recorder = None
        recorder.finalize(result)
        self.cache.put(key, rec)
        return result

    # -- replay --------------------------------------------------------------
    def _replayable(self, rec: TrajectoryRecording, limit: int) -> bool:
        """Whether ``rec`` can serve a phase with iteration budget ``limit``.

        Only a finished (terminal) recording replays, and only under its
        recorded budget: solvers may shape their work by the remaining
        budget (GMRES truncates its final Arnoldi cycle), so a different
        ``max_iter`` is a different execution even from the same start state.
        """
        return rec.limit == limit and rec.ended == "terminal"

    def _replay(
        self,
        rec: TrajectoryRecording,
        iteration_offset: int,
        callback: Callable[[IterationState], None],
    ) -> SolveResult:
        # The loop holds ``rec``, so an eviction meanwhile cannot tear it.
        for local, step in enumerate(rec.steps, start=1):
            self.iterations_replayed += 1
            # May raise SolverInterrupt (the engine's failure signal) —
            # exactly as the numeric execution's callback would.
            callback(_ReplayState(self, rec, local, iteration_offset + local, step))
        norms = [step.residual_norm for step in rec.steps]
        if rec.residual0 is not None:
            norms = [rec.residual0] + norms
        return SolveResult(
            x=rec.final_x.copy(),
            converged=rec.converged,
            iterations=len(rec.steps),
            residual_norms=norms,
            solver=rec.solver_name,
            b_norm=self.b_norm,
            info=dict(rec.info),
        )

    # -- catch-up ------------------------------------------------------------
    def materialize(self, rec: TrajectoryRecording, local: int) -> IterationState:
        """Full state at phase-local iteration ``local`` (1-based).

        Snapshot hit (every state of a dense recording within its byte
        bound, every boundary a recording saw): return it.  Otherwise
        re-execute numerically from the nearest base whose continuation is
        provably bitwise — a mid-phase snapshot when the solver declares
        ``bitwise_resume`` (and, for boundary-gated solvers like GMRES, the
        snapshot captures a resume state), else the phase start, where
        re-issuing the identical solve call is deterministic re-execution
        for every solver.
        """
        snap = rec.snapshots.get(local)
        if snap is not None:
            return snap
        base_local = 0
        base_x = rec.start_x
        base_resume = rec.start_resume
        if self.solver.checkpoint_spec.bitwise_resume:
            for j in sorted((k for k in rec.snapshots if k < local), reverse=True):
                candidate = rec.snapshots[j]
                resume = self.solver.capture_resume_state(candidate)
                if resume is not None:
                    base_local, base_x, base_resume = j, candidate.x, resume
                    break
        span = local - base_local
        collected: Dict[str, IterationState] = {}
        emitted = [0]

        def collector(st: IterationState) -> None:
            emitted[0] += 1
            if emitted[0] == span:
                collected["state"] = st

        if self.solver._trajectory_recorder is not None:  # pragma: no cover
            raise RuntimeError("catch-up attempted while a recording is active")
        self.solver.solve(
            self.b,
            x0=base_x,
            callback=collector,
            max_iter=span,
            iteration_offset=base_local,
            resume_state=base_resume,
        )
        self.catchup_iterations += span
        state = collected.get("state")
        if state is None:  # pragma: no cover - recording guarantees the span
            raise RuntimeError(
                f"replay catch-up produced {emitted[0]} iterations, "
                f"needed {span} (recording of {rec.solver_name})"
            )
        state = _copy_state(state)
        rec.snapshots[local] = state
        self.cache.grow(rec.key, rec, _state_bytes(state))
        return state
