"""Discrete-event fault-tolerance engine (Algorithms 1-2 + Section 5.4).

The solver runs for real (at reduced problem size) and its per-iteration
callback drives a *virtual* cluster timeline, narrated as explicit events —
compute, checkpoint, failure, recovery, rollback — dispatched against a
typed :class:`EngineState`, and every solver-specific decision flows
through the ``CheckpointableState`` protocol
(:class:`~repro.solvers.base.CheckpointSpec`) rather than ``isinstance``
checks:

* each solver declares which state an exact checkpoint stores and how the
  sequence resumes (CG's ``(p, rho)``, BiCGSTAB's full recurrence, GMRES's
  restart-boundary resume, the stationary methods' bare ``x``);
* failure arrivals come from a pluggable
  :class:`~repro.cluster.failures.FailureModel` (Poisson by default, plus
  Weibull infant-mortality and bursty/correlated arrivals);
* recovery is multilevel-aware: under the ``fti`` scenario checkpoints walk
  the FTI level cycle of
  :class:`~repro.checkpoint.multilevel.MultilevelCheckpointStore`, cheap
  levels may not survive a failure, and a recovery is priced at the level of
  the checkpoint it actually restores instead of always charging a PFS read;
* every checkpoint is written and restored through the single
  :class:`~repro.checkpoint.pipeline.CheckpointPipeline`: the solver's
  declared state is compressed per variable, packed into one serialized
  payload, and priced from that payload's measured per-variable byte sizes.

Reports are byte-pinned by the golden-report fixtures: the paper regime
(the default :class:`~repro.engine.scenario.Scenario`) across every solver
and scheme, and the async, multilevel, bursty and store-backend axes.

Event calendar
--------------
Everything that can *interrupt or gate* the compute loop is a typed
:class:`~repro.engine.calendar.ScheduledEvent` on an
:class:`~repro.engine.calendar.EventCalendar`:

* ``failure-strike`` — the injector's pending arrival.  The
  :class:`~repro.cluster.failures.FailureInjector` owns its single live
  posting (:meth:`~repro.cluster.failures.FailureInjector.reschedule`): it
  is posted once up front and re-posted after every consume, so the hot
  loop's only per-iteration failure work is one float comparison against
  :attr:`~repro.engine.calendar.EventCalendar.next_time`.
* ``checkpoint-due`` — the checkpoint cadence.  Every due-time change
  cancels the previous posting and posts a new one (lazy cancellation).
* ``compute-phase-end`` — posted at every solver-segment boundary
  (converged, interrupted, budget-capped) and retired inline by the run
  loop, which is its handler; the posting claims the boundary's slot in the
  global event sequence.
* ``drain-complete`` / ``staging-slot-freed`` — see below.

Simultaneous events resolve by ``(time, seq)``: posting order breaks ties,
identically on every same-seed run.  A strike that lands *inside* an
iteration window preempts a cadence event with an earlier due time — the
cadence action only runs at the iteration boundary, by which point the
machine is already down (``_dispatch_boundary``).

Two-channel timeline (``write_mode="async"``)
---------------------------------------------
The paper — and the default ``blocking`` mode — charges the whole checkpoint
write inline on one serialized clock.  Under the scenario's asynchronous
write mode the timeline splits into two
:class:`~repro.engine.calendar.Channel` objects, each with its own calendar:

* the **compute channel** (:class:`~repro.engine.calendar.ComputeChannel`)
  — iterations, inline captures, recoveries, rollbacks.  It also anchors
  the incremental rollback accounting: the compute-seconds total at the
  newest committed checkpoint, so the rollback span is an O(1) difference.
* the **I/O channel** (:class:`~repro.engine.calendar.IOChannel`) — one
  ``drain-complete`` event per staged checkpoint, serialized on the
  channel's ``busy_until`` clock and priced at the contended async
  bandwidth (:meth:`~repro.cluster.machine.ClusterModel.drain_seconds`);
  while a drain is in flight, compute iterations pay a small interference
  surcharge.

I/O-channel completions are only *observable* from the compute channel at
synchronization points — checkpoint entry, an I/O-channel failure, and the
end of the run — which is why the drains live on their own calendar: a
``drain-complete`` whose time has passed is not delivered until the compute
channel synchronizes (both calendars share one
:class:`~repro.engine.calendar.SequenceCounter`, so the global order is
still total).  A checkpoint becomes *recoverable only when its drain
commits* — a failure mid-drain discards the dirty write and recovery falls
back to the previous completed checkpoint.  When every staging slot holds
an in-flight drain the capture defers (backpressure), and the commit that
frees a slot posts ``staging-slot-freed`` to end the deferral episode.
Every payload is a full one, as in blocking mode: a drain ships, and a
recovery reads, exactly the checkpoint's own bytes.

Blocking mode takes none of these paths and stays byte-identical to the
single-clock engine (pinned by the equivalence suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelCheckpointStore,
    MultilevelPolicy,
)
from repro.checkpoint.pipeline import CheckpointPipeline, PipelineSnapshot
from repro.checkpoint.store import CheckpointStore
from repro.cluster.machine import PAPER_ITERATION_SECONDS, ClusterModel
from repro.engine.calendar import (
    ComputeChannel,
    EventCalendar,
    EventKind,
    IOChannel,
    SequenceCounter,
)
from repro.engine.events import (
    CheckpointDeferredEvent,
    CheckpointDiscardedEvent,
    CheckpointTakenEvent,
    ComputeEvent,
    DrainCompletedEvent,
    DrainStartedEvent,
    EventLog,
    FailureHitEvent,
    GiveUpEvent,
    RecoveryEvent,
    RollbackEvent,
)
from repro.engine.replay import (
    ReplaySession,
    get_global_snapshot_memo,
    replay_enabled,
    scheme_fingerprint,
)
from repro.engine.report import BaselineRun, FTRunReport, run_failure_free
from repro.engine.scenario import DEFAULT_SCENARIO, Scenario
from repro.solvers.base import (
    IterationState,
    IterativeSolver,
    ResumeState,
    SolverInterrupt,
)
from repro.utils.rng import SeedLike
from repro.utils.timing import VirtualClock
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # imported lazily at runtime to keep the package acyclic
    from repro.core.scale import ExperimentScale
    from repro.core.schemes import CheckpointingScheme

__all__ = ["FaultToleranceEngine", "CheckpointRecord", "EngineState", "PendingDrain"]

#: How many times an interrupted recovery/rollback phase restarts before the
#: engine forces one final uninterrupted attempt (keeps pathological seeds
#: terminating while leaving the time accounting of a *finished* phase).
RECOVERY_RETRY_BUDGET = 16


class _FailureSignal(SolverInterrupt):
    """Internal interrupt raised by the compute handler when a failure hits."""


@dataclass
class CheckpointRecord:
    """One complete checkpoint on the virtual timeline."""

    checkpoint_id: int
    iteration: int
    #: The serialized pipeline payload plus its measured per-variable bytes.
    snapshot: PipelineSnapshot
    compression_ratio: float
    #: Bytes this checkpoint was *priced* at: its measured payload bytes,
    #: each variable scaled to paper size by its own compression ratio.
    model_uncompressed_bytes: float
    model_compressed_bytes: float
    #: Cumulative compute seconds when this checkpoint completed — the anchor
    #: for computing rollback work when a multilevel recovery falls back here.
    compute_seconds_at_completion: float
    #: FTI level the payload was written to (None under PFS-only scenarios).
    level: Optional[int] = None


@dataclass
class PendingDrain:
    """One staged checkpoint still flushing on the I/O channel.

    Carried as the payload of the checkpoint's ``drain-complete`` event on
    the I/O calendar.  The record is fully priced and holds its payload, but
    it is *not* recoverable until the drain commits: a failure before
    ``end`` discards it (dirty write) and recovery falls back to the
    previous completed checkpoint.
    """

    record: CheckpointRecord
    #: I/O-channel interval of the drain (``start`` may be after the capture
    #: finished when an earlier drain still held the channel).
    start: float
    end: float
    seconds: float


@dataclass
class EngineState:
    """Explicit mutable state of one run (replaces the old dict closure).

    Channel clocks live on the engine's
    :class:`~repro.engine.calendar.ComputeChannel` /
    :class:`~repro.engine.calendar.IOChannel` objects, and in-flight drains
    on the I/O calendar; this dataclass keeps the run's *outcome* state —
    checkpoints, counters, traces.
    """

    next_checkpoint_due: float
    last_checkpoint: Optional[CheckpointRecord] = None
    #: All live checkpoints by id — only populated under multilevel scenarios,
    #: where a failure may destroy recent cheap-level checkpoints and the
    #: recovery falls back to an older survivor.
    records: Dict[int, CheckpointRecord] = field(default_factory=dict)
    num_checkpoints: int = 0
    num_inline_failures: int = 0
    compression_ratios: List[float] = field(default_factory=list)
    checkpoint_times: List[float] = field(default_factory=list)
    recovery_times: List[float] = field(default_factory=list)
    residual_trace: List[Tuple[int, float]] = field(default_factory=list)
    interrupted_at: Optional[int] = None
    gave_up: bool = False
    give_up_reason: Optional[str] = None
    # -- asynchronous (two-channel) write mode only ------------------------
    #: Id the next async checkpoint gets (ids are assigned at capture, but
    #: ``num_checkpoints`` only counts drains that completed).
    next_checkpoint_id: int = 0
    #: Drain seconds of every *completed* checkpoint (I/O-channel time).
    drain_times: List[float] = field(default_factory=list)
    #: Checkpoints whose drain a failure interrupted (dirty writes).
    num_dirty_checkpoints: int = 0
    #: Captures deferred because every staging slot held an in-flight drain.
    num_deferred_checkpoints: int = 0
    #: True while the current due checkpoint is being held back by staging
    #: backpressure (collapses per-iteration retries into one event).
    checkpoint_deferred: bool = False


class FaultToleranceEngine:
    """Execute one solver under one checkpointing scheme with injected failures.

    Parameters
    ----------
    solver:
        A configured :class:`~repro.solvers.base.IterativeSolver`.
    b:
        Right-hand side.
    scheme:
        The checkpointing scheme (traditional / lossless / lossy).
    cluster:
        Cluster time model at the desired process count; a non-``pfs``
        scenario backend substitutes its own storage profile.
    scale:
        Paper-scale problem description used to convert measured compression
        ratios into modeled checkpoint bytes.
    mtti_seconds:
        Mean time to interruption for the injected failures; ``None`` disables
        failures.
    checkpoint_interval_seconds:
        Virtual seconds between checkpoints.  When None it is derived from
        Young's formula using ``estimated_checkpoint_seconds``.
    estimated_checkpoint_seconds:
        A priori estimate of one checkpoint's cost (as the paper does, from
        the fixed-frequency characterization runs of Section 5.3); required
        when ``checkpoint_interval_seconds`` is None.
    method:
        Name used for iteration-time calibration; defaults to ``solver.name``.
    baseline:
        Failure-free reference; computed on demand when omitted.
    max_restarts:
        Safety cap on the number of failure recoveries before giving up.
    scenario:
        Failure-model × recovery-level regime; defaults to the paper's
        (Poisson arrivals, PFS-only recovery).
    multilevel_policy:
        Level cycle/cost/survival table for ``fti`` scenarios; the FTI-like
        default cycle is used when omitted.
    record_events:
        Keep an :class:`~repro.engine.events.EventLog` of the run (off by
        default — one event per iteration).
    max_events:
        Bound the event log to the newest ``max_events`` entries (ring
        buffer); ``None`` keeps every event.  Only meaningful with
        ``record_events=True``.
    replay:
        Trajectory-replay cache switch (see :mod:`repro.engine.replay`).
        ``None`` (default) defers to the ``REPRO_REPLAY`` environment
        variable, which enables replay unless set to ``off``; ``True`` /
        ``False`` force it per engine.  Reports are byte-identical either
        way — replay only changes how fast phases the process has already
        computed are re-traversed.
    """

    def __init__(
        self,
        solver: IterativeSolver,
        b: np.ndarray,
        scheme: "CheckpointingScheme",
        *,
        cluster: Optional[ClusterModel] = None,
        scale: Optional["ExperimentScale"] = None,
        mtti_seconds: Optional[float] = 3600.0,
        checkpoint_interval_seconds: Optional[float] = None,
        estimated_checkpoint_seconds: Optional[float] = None,
        iteration_seconds: Optional[float] = None,
        method: Optional[str] = None,
        baseline: Optional[BaselineRun] = None,
        x0: Optional[np.ndarray] = None,
        seed: SeedLike = None,
        max_restarts: int = 1000,
        max_total_iterations: Optional[int] = None,
        scenario: Optional[Scenario] = None,
        multilevel_policy: Optional[MultilevelPolicy] = None,
        record_events: bool = False,
        max_events: Optional[int] = None,
        replay: Optional[bool] = None,
    ) -> None:
        from repro.core.model import young_interval
        from repro.core.scale import ExperimentScale

        self.solver = solver
        self.b = np.asarray(b, dtype=np.float64)
        self.scheme = scheme
        self.scenario = scenario or DEFAULT_SCENARIO
        self.cluster = self.scenario.priced_on(cluster or ClusterModel())
        self.scale = scale or ExperimentScale(
            num_processes=self.cluster.num_processes, grid_n=2160
        )
        self.mtti_seconds = mtti_seconds
        self.method = method or solver.name
        self.iteration_seconds = (
            check_positive(iteration_seconds, "iteration_seconds")
            if iteration_seconds is not None
            else PAPER_ITERATION_SECONDS[self.method]
        )
        if checkpoint_interval_seconds is None:
            if estimated_checkpoint_seconds is None:
                raise ValueError(
                    "provide either checkpoint_interval_seconds or "
                    "estimated_checkpoint_seconds (to apply Young's formula)"
                )
            if mtti_seconds is None:
                raise ValueError(
                    "Young's formula needs a finite MTTI; pass "
                    "checkpoint_interval_seconds explicitly for failure-free runs"
                )
            checkpoint_interval_seconds = young_interval(
                estimated_checkpoint_seconds, mtti_seconds
            )
        self.checkpoint_interval_seconds = check_positive(
            checkpoint_interval_seconds, "checkpoint_interval_seconds"
        )
        self.x0 = (
            np.zeros(self.solver.n, dtype=np.float64)
            if x0 is None
            else np.asarray(x0, dtype=np.float64).copy()
        )
        self.seed = seed
        self.baseline = baseline
        self.max_restarts = int(max_restarts)
        self.max_total_iterations = max_total_iterations
        self.b_norm = float(np.linalg.norm(self.b))
        self.multilevel_policy = multilevel_policy
        self.record_events = bool(record_events)
        self.max_events = max_events
        self.replay = replay
        self._replay: Optional[ReplaySession] = None
        self.events: Optional[EventLog] = None
        # Per-run working attributes (set up in run()).
        self._clock: VirtualClock = VirtualClock()
        self._async: bool = self.scenario.asynchronous
        self._injector = None
        self._store: Optional[MultilevelCheckpointStore] = None
        #: Physical payload backend selected by ``scenario.store_backend``
        #: (None for ``pfs``: the paper's file system is priced, never
        #: written — the checkpoint records hold the payloads).
        self._backend: Optional[CheckpointStore] = None
        self._backend_dir = None  # TemporaryDirectory for the disk backend
        self._pipeline: Optional[CheckpointPipeline] = None
        self._state: EngineState = EngineState(
            next_checkpoint_due=self.checkpoint_interval_seconds
        )
        self._vectors: int = 0
        # Calendar machinery: one global sequence, one calendar per channel.
        self._sequence = SequenceCounter()
        self._calendar = EventCalendar(self._sequence)
        self._io_calendar = EventCalendar(self._sequence)
        self._compute = ComputeChannel("compute")
        self._io = IOChannel("io")
        self._due_event = None  # live CHECKPOINT_DUE posting (or None)

    @property
    def events_processed(self) -> int:
        """Calendar sequence numbers claimed so far — every scheduled and
        recorded event of the run (the benchmark's throughput numerator)."""
        return self._sequence.value

    @property
    def replay_hits(self) -> int:
        """Phases of the last run served from the trajectory-replay cache."""
        return 0 if self._replay is None else self._replay.hits

    @property
    def replay_iterations_saved(self) -> int:
        """Solver iterations the last run replayed instead of re-executing,
        net of numeric catch-up spent materializing checkpoint boundaries."""
        return 0 if self._replay is None else self._replay.iterations_saved

    # ------------------------------------------------------------------
    def run(self) -> FTRunReport:
        """Execute the failure-injected run and return its report."""
        if self.baseline is None:
            self.baseline = run_failure_free(self.solver, self.b, x0=self.x0)

        clock = self._clock = VirtualClock()
        self._sequence = SequenceCounter()
        calendar = self._calendar = EventCalendar(self._sequence)
        self._io_calendar = EventCalendar(self._sequence)
        self._compute = ComputeChannel("compute")
        self._io = IOChannel("io")
        self._due_event = None
        self._injector = self.scenario.build_injector(self.mtti_seconds, self.seed)
        self._async = self.scenario.asynchronous
        # Latent arrivals strike at the window that finds them on the
        # two-channel timeline only; the blocking timeline keeps the stale
        # arrival untouched (byte-pinned by the paper-regime golden reports).
        self._injector.latent_clamp = self._async
        self._injector.reschedule(calendar)
        if self.scenario.store_backend == "disk":
            import tempfile

            # Held on self so the payload files outlive run() for inspection;
            # the TemporaryDirectory finalizer cleans up with the engine.
            self._backend_dir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
        self._backend = self.scenario.build_backend_store(
            directory=self._backend_dir.name if self._backend_dir else None
        )
        self._store = self.scenario.build_multilevel_store(
            self.seed, policy=self.multilevel_policy, backend=self._backend
        )
        self._staging_slots = int(self.cluster.spec.async_staging_slots)
        self._pipeline = CheckpointPipeline(
            self.scheme,
            solver=self.solver,
            # Multilevel wraps the physical backend when both are selected;
            # a bare backend persists payloads even under PFS-only recovery.
            store=self._store if self._store is not None else self._backend,
        )
        self._vectors = self.scheme.dynamic_vector_count(self.solver)
        self.events = (
            EventLog(max_events=self.max_events) if self.record_events else None
        )
        state = self._state = EngineState(
            next_checkpoint_due=self.checkpoint_interval_seconds
        )
        self._set_due(self.checkpoint_interval_seconds)
        # Trajectory replay: phases whose exact numeric start state the
        # process has already executed are served from the recording instead
        # of re-running matvecs (byte-identical reports either way).
        self._replay = (
            ReplaySession(self.solver, self.b)
            if replay_enabled(self.replay)
            else None
        )
        if self._replay is not None and self.scheme.uses_compression:
            # Same switch, second cache: identical checkpoint calls compress
            # once per process instead of once per run (the compression pass
            # dominates the event loop once the solve itself is replayed).
            # An identity payload is a copy plus an index, cheaper than the
            # digest that would key it.
            self._pipeline.enable_snapshot_memo(
                get_global_snapshot_memo(),
                self._replay.context + scheme_fingerprint(self.scheme),
            )

        x_current = self.x0.copy()
        resume: Optional[ResumeState] = None
        iteration_offset = 0
        restarts_from_scratch = 0
        converged = False
        total_iterations = 0
        restarts = 0

        while True:
            interrupted = False
            try:
                result = self._solve_once(x_current, resume, iteration_offset)
            except _FailureSignal:
                interrupted = True
                result = None
            # The segment boundary claims its slot in the global sequence;
            # the code below *is* its handler, so the posting retires
            # immediately (lazy cancellation).
            calendar.post(
                clock.now,
                EventKind.COMPUTE_PHASE_END,
                payload="interrupted" if interrupted else "solved",
            ).cancel()

            if not interrupted and result is not None:
                total_iterations = iteration_offset + result.iterations
                converged = result.converged
                if (
                    not converged
                    and self.max_total_iterations is not None
                    and total_iterations >= self.max_total_iterations
                ):
                    # The iteration budget — not the solver — ended the run.
                    state.gave_up = True
                    state.give_up_reason = "max_total_iterations"
                    self._record(
                        GiveUpEvent(
                            time=clock.now,
                            reason="max_total_iterations",
                            iterations_reached=total_iterations,
                        )
                    )
                break

            # ---- failure path: recover from the last complete checkpoint ----
            restarts += 1
            if restarts > self.max_restarts:
                # Give up — but report the progress actually made instead of
                # a stale zero (the interrupted iteration is the furthest
                # point the timeline reached).
                state.gave_up = True
                state.give_up_reason = "max_restarts"
                total_iterations = (
                    int(state.interrupted_at)
                    if state.interrupted_at is not None
                    else iteration_offset
                )
                self._record(
                    GiveUpEvent(
                        time=clock.now,
                        reason="max_restarts",
                        iterations_reached=total_iterations,
                    )
                )
                break
            self._apply_survival()
            last = state.last_checkpoint
            recovery_seconds = self._recovery_seconds(last)
            self._advance_with_failures(recovery_seconds, "recovery")
            state.recovery_times.append(recovery_seconds)
            self._record(
                RecoveryEvent(
                    time=clock.now,
                    seconds=recovery_seconds,
                    from_iteration=0 if last is None else last.iteration,
                    from_scratch=last is None,
                    level=None if last is None else last.level,
                )
            )

            if last is None:
                # No checkpoint survived (or none was taken yet): restart
                # from the initial guess.
                x_current = self.x0.copy()
                resume = None
                iteration_offset = 0
                restarts_from_scratch += 1
            else:
                # One restore path for every read — the in-memory record and
                # a multilevel fallback carry the same serialized payload, so
                # the lossy rollback distortion happens inside the pipeline.
                restored = self._pipeline.restore(
                    last.checkpoint_id, payload=last.snapshot.payload
                )
                x_current = restored.x
                iteration_offset = last.iteration
                resume = (
                    restored.resume_state
                    if self.scheme.checkpoint_krylov_state
                    else None
                )
            if (
                self.max_total_iterations is not None
                and iteration_offset >= self.max_total_iterations
            ):
                state.gave_up = True
                state.give_up_reason = "max_total_iterations"
                total_iterations = iteration_offset
                self._record(
                    GiveUpEvent(
                        time=clock.now,
                        reason="max_total_iterations",
                        iterations_reached=total_iterations,
                    )
                )
                break

        if self._async:
            # The run is over (converged or gave up): whatever is still
            # staged finishes flushing in the background — settle so the
            # checkpoint counts reflect every write that completed.
            self._settle_drains(self._io.busy_until)
        return self._build_report(converged, total_iterations, restarts_from_scratch)

    # -- event handlers ------------------------------------------------------
    def _on_compute(self, it_state: IterationState) -> None:
        """Compute event: one solver iteration on the virtual timeline.

        The hot path does exactly three things — advance the two clocks,
        append the residual trace, and compare the calendar's cached
        ``next_time`` against the clock.  Failure strikes and checkpoint
        cadence only cost anything when an event is actually due
        (:meth:`_dispatch_boundary`).
        """
        clock = self._clock
        seconds = self.iteration_seconds
        start = clock.now
        clock.advance(seconds, "compute")
        self._compute.advance(seconds)
        if self._async and self._io.busy_at(start):
            # A drain is in flight: the background flush steals bandwidth
            # from the solver, so this iteration pays the interference
            # surcharge on the compute channel.  The surcharge is I/O
            # contention, not solver work — it is not re-executed on a
            # rollback, so it stays out of the rollback anchor arithmetic.
            surcharge = seconds * self.cluster.async_interference
            if surcharge > 0.0:
                clock.advance(surcharge, "io_interference")
        self._state.residual_trace.append(
            (it_state.iteration, it_state.residual_norm)
        )
        if self.events is not None:
            self._record(
                ComputeEvent(
                    time=clock.now,
                    iteration=it_state.iteration,
                    seconds=seconds,
                    residual_norm=it_state.residual_norm,
                )
            )
        if self._calendar.next_time <= clock.now:
            self._dispatch_boundary(it_state, start)

    def _dispatch_boundary(self, it_state: IterationState, window_start: float) -> None:
        """Deliver calendar events due at this iteration boundary.

        At most two kinds can be actionable here and each has at most one
        live posting, so delivery is kind-routed rather than heap-popped:

        * ``failure-strike`` first — a strike inside the window preempts the
          cadence action, which only runs at the boundary (by then the
          machine is already down).  At most one strike is delivered per
          boundary; an arrival re-armed into this same window is found by
          the *next* window, exactly as the per-phase window checks did.
        * ``checkpoint-due`` second, against the due time the strike handler
          may just have reset.

        ``drain-complete`` events live on the I/O calendar and are never
        delivered here — the compute channel only observes them at
        synchronization points.
        """
        head = self._calendar.peek()  # also skips lazily-cancelled postings
        clock = self._clock
        if head is None or head.time > clock.now:
            return
        injector = self._injector
        state = self._state
        if injector.peek() <= clock.now:
            failure_time = injector.strike_time(window_start)
            if self.scheme.lossy:
                self._consume_strike(failure_time, "compute")
                self._on_io_channel_failure(failure_time)
                state.interrupted_at = it_state.iteration
                raise _FailureSignal(it_state.iteration, "failure during compute")
            self._on_inline_failure(failure_time, "compute")
        if clock.now >= state.next_checkpoint_due and self._checkpoint_allowed(
            it_state, overdue_seconds=clock.now - state.next_checkpoint_due
        ):
            self._on_checkpoint(it_state)

    def _on_inline_failure(self, failure_time: float, phase: str) -> None:
        """Exact-scheme failure: pure time cost (recovery + rollback).

        Traditional and lossless checkpoints restore the solver state
        bit-for-bit, so the numerical trajectory is unaffected — the failure
        only costs the recovery read plus re-execution of the work done since
        the last complete checkpoint.  The solve itself is not interrupted
        (its re-execution would reproduce the same iterates).

        A checkpoint that was already *due* when the failure struck is not
        silently dropped: the due time is left at "now", so the checkpoint is
        retaken at the first opportunity after the rollback instead of a full
        interval later (high failure rates would otherwise stretch the
        effective interval far past Young's optimum).
        """
        clock = self._clock
        state = self._state
        self._consume_strike(failure_time, phase)
        state.num_inline_failures += 1
        self._on_io_channel_failure(failure_time)
        checkpoint_was_due = clock.now >= state.next_checkpoint_due
        self._apply_survival()
        last = state.last_checkpoint
        recovery_seconds = self._recovery_seconds(last)
        self._advance_with_failures(recovery_seconds, "recovery")
        state.recovery_times.append(recovery_seconds)
        self._record(
            RecoveryEvent(
                time=clock.now,
                seconds=recovery_seconds,
                from_iteration=0 if last is None else last.iteration,
                from_scratch=last is None,
                level=None if last is None else last.level,
            )
        )
        rollback_seconds = self._compute.since_checkpoint
        self._advance_with_failures(rollback_seconds, "rollback")
        self._record(RollbackEvent(time=clock.now, seconds=rollback_seconds))
        if checkpoint_was_due or (
            # Two-channel mode: recovery + rollback may outlast the
            # checkpoint interval (long rollbacks happen whenever a failure
            # discarded in-flight drains).  The checkpoint that came due
            # during the handling is taken at the first opportunity instead
            # of a full interval later — otherwise repeated failures push
            # the cadence away indefinitely, the rollback anchor goes stale
            # and the rollback span compounds.
            self._async
            and clock.now >= state.next_checkpoint_due
        ):
            self._set_due(clock.now)
        else:
            self._set_due(clock.now + self.checkpoint_interval_seconds)

    def _on_checkpoint(self, it_state: IterationState) -> None:
        """Checkpoint event: run the pipeline, advance the priced cost.

        The full payload — iterate, declared resume vectors, scalars — is
        materialized and serialized through the
        :class:`~repro.checkpoint.pipeline.CheckpointPipeline` *before* the
        write is priced, so the cost can come from what the checkpoint
        actually contains.  A failure landing inside the checkpoint window
        discards the incomplete checkpoint (the previous complete one remains
        valid, and nothing is committed to the store); under the lossy scheme
        it also interrupts the solve, matching the paper's methodology where
        failures may occur during the checkpoint/recovery period.
        """
        clock = self._clock
        state = self._state
        if self._replay is not None:
            # Recording mode retains the full state seen at this boundary so
            # later replays of the span find it without numeric catch-up
            # (no-op while replaying — the state already comes from the
            # recording).
            self._replay.note_boundary_state(it_state)
        if self._async:
            # Synchronization point: commit every drain that finished before
            # this capture so the rollback anchor is current.
            self._settle_drains(clock.now)
            if self._io.in_flight >= self._staging_slots:
                # Backpressure: every node-local staging buffer still holds
                # an in-flight drain, so the compute channel has nowhere to
                # stage this payload.  Leave the checkpoint due — it is
                # retried as soon as a drain settles.  Without this cap a
                # drain slower than the checkpoint interval (e.g. the
                # traditional scheme's uncompressed payload) grows the dirty
                # queue without bound: no checkpoint ever commits, the
                # rollback span stretches toward the whole run, and failure
                # counts explode (see docs/architecture.md).
                if not state.checkpoint_deferred:
                    state.checkpoint_deferred = True
                    state.num_deferred_checkpoints += 1
                    self._record(
                        CheckpointDeferredEvent(
                            time=clock.now,
                            iteration=it_state.iteration,
                            pending=self._io.in_flight,
                        )
                    )
                return
        checkpoint_id = (
            state.next_checkpoint_id if self._async else state.num_checkpoints
        )
        resume = (
            self.solver.capture_resume_state(it_state)
            if self.scheme.checkpoint_krylov_state
            else None
        )
        snapshot = self._pipeline.snapshot(
            it_state.x,
            iteration=it_state.iteration,
            resume_state=resume,
            residual_norm=it_state.residual_norm,
            b_norm=self.b_norm,
            checkpoint_id=checkpoint_id,
        )

        model_uncompressed, model_compressed = snapshot.scaled_bytes(self.scale)
        ratio = model_uncompressed / max(model_compressed, 1e-12)
        level: Optional[int] = None
        if self._store is not None:
            # With drains outstanding the level cycle has already been
            # "claimed" by the pending writes, so peek past them.
            level = int(self._store.next_level(self._io.in_flight))
        # A dedup backend only ships the chunks the pool does not already
        # hold; duplicate bytes never hit the wire, so they cost nothing.
        ship_compressed = model_compressed * self._dedup_fraction(snapshot)

        if self._async:
            self._enqueue_drain(
                it_state,
                snapshot,
                ratio=ratio,
                model_uncompressed=model_uncompressed,
                model_compressed=model_compressed,
                ship_compressed=ship_compressed,
                level=level,
            )
            return

        ckpt_seconds = self.cluster.checkpoint_seconds(
            model_uncompressed,
            ship_compressed,
            compressed=self.scheme.uses_compression,
            write_cost_multiplier=self._level_multiplier(level),
        )

        start = clock.now
        clock.advance(ckpt_seconds, "checkpoint")
        state.checkpoint_times.append(ckpt_seconds)
        if self._injector.peek() <= clock.now:
            failure_time = self._injector.strike_time(start)
            # Incomplete checkpoint: do not record or commit it.
            self._record(
                CheckpointDiscardedEvent(time=clock.now, iteration=it_state.iteration)
            )
            if self.scheme.lossy:
                self._consume_strike(failure_time, "checkpoint")
                state.interrupted_at = it_state.iteration
                self._set_due(clock.now + self.checkpoint_interval_seconds)
                raise _FailureSignal(
                    it_state.iteration, "failure during checkpoint"
                )
            self._on_inline_failure(failure_time, "checkpoint")
            return

        record = CheckpointRecord(
            checkpoint_id=state.num_checkpoints,
            iteration=it_state.iteration,
            snapshot=snapshot,
            compression_ratio=ratio,
            model_uncompressed_bytes=model_uncompressed,
            model_compressed_bytes=model_compressed,
            compute_seconds_at_completion=self._compute.seconds_total,
            level=level,
        )
        if self._pipeline.store is not None:
            self._pipeline.commit(snapshot)
        if self._store is not None:
            record.level = int(self._store.level_of(record.checkpoint_id))
            state.records[record.checkpoint_id] = record
            self._prune_unreachable_records()
        state.last_checkpoint = record
        state.num_checkpoints += 1
        state.compression_ratios.append(ratio)
        self._compute.mark()
        self._set_due(clock.now + self.checkpoint_interval_seconds)
        self._record(
            CheckpointTakenEvent(
                time=clock.now,
                iteration=it_state.iteration,
                seconds=ckpt_seconds,
                compression_ratio=ratio,
                level=record.level,
            )
        )

    # -- asynchronous I/O channel --------------------------------------------
    def _enqueue_drain(
        self,
        it_state: IterationState,
        snapshot: PipelineSnapshot,
        *,
        ratio: float,
        model_uncompressed: float,
        model_compressed: float,
        ship_compressed: float,
        level: Optional[int],
    ) -> None:
        """Async checkpoint: inline capture on the compute channel, then a
        ``drain-complete`` event on the I/O calendar.

        The solver stalls only for compression + node-local staging; the
        storage write of the payload acquires the I/O channel — starting when
        the channel frees up — and its completion is posted at the drain's
        end time.  Until a synchronization point
        delivers that event the checkpoint is a *dirty* write: a failure
        discards it and recovery falls back to the previous completed
        checkpoint.  A failure during the capture itself discards the
        snapshot before anything is staged (as in blocking mode).
        """
        clock = self._clock
        state = self._state
        capture_seconds = self.cluster.capture_seconds(
            model_uncompressed,
            model_compressed,
            compressed=self.scheme.uses_compression,
        )
        start = clock.now
        clock.advance(capture_seconds, "checkpoint")
        state.checkpoint_times.append(capture_seconds)
        if self._injector.peek() <= clock.now:
            failure_time = self._injector.strike_time(start)
            # The capture never finished: nothing was staged, nothing drains.
            self._record(
                CheckpointDiscardedEvent(time=clock.now, iteration=it_state.iteration)
            )
            if self.scheme.lossy:
                self._consume_strike(failure_time, "checkpoint")
                self._on_io_channel_failure(failure_time)
                state.interrupted_at = it_state.iteration
                self._set_due(clock.now + self.checkpoint_interval_seconds)
                raise _FailureSignal(
                    it_state.iteration, "failure during checkpoint capture"
                )
            self._on_inline_failure(failure_time, "checkpoint")
            return

        drain_seconds = self.cluster.drain_seconds(
            ship_compressed, write_cost_multiplier=self._level_multiplier(level)
        )
        drain_start, drain_end = self._io.enqueue(clock.now, drain_seconds)
        record = CheckpointRecord(
            checkpoint_id=snapshot.checkpoint_id,
            iteration=it_state.iteration,
            snapshot=snapshot,
            compression_ratio=ratio,
            model_uncompressed_bytes=model_uncompressed,
            model_compressed_bytes=model_compressed,
            compute_seconds_at_completion=self._compute.seconds_total,
            level=level,
        )
        self._io_calendar.post(
            drain_end,
            EventKind.DRAIN_COMPLETE,
            payload=PendingDrain(
                record=record, start=drain_start, end=drain_end, seconds=drain_seconds
            ),
        )
        state.next_checkpoint_id += 1
        self._set_due(clock.now + self.checkpoint_interval_seconds)
        self._record(
            DrainStartedEvent(
                time=clock.now,
                checkpoint_id=record.checkpoint_id,
                iteration=it_state.iteration,
                drain_start=drain_start,
                seconds=drain_seconds,
            )
        )

    def _settle_drains(self, until: float) -> None:
        """Deliver every ``drain-complete`` due by I/O-channel time ``until``.

        A committed drain becomes the newest recovery point: the payload is
        persisted through the pipeline (entering the multilevel survival
        cycle under ``fti`` scenarios) and the rollback anchor rebases onto
        it.  If the commit frees a staging slot while a capture is deferred,
        the backpressure episode ends with a ``staging-slot-freed`` posting
        (delivered synchronously here).
        """
        if self._io.in_flight == 0:
            return
        state = self._state
        for event in self._io_calendar.pop_due(until):
            pending: PendingDrain = event.payload
            self._io.complete_one()
            record = pending.record
            self._pipeline.commit(record.snapshot)
            if self._store is not None:
                record.level = int(self._store.level_of(record.checkpoint_id))
                state.records[record.checkpoint_id] = record
                self._prune_unreachable_records()
            state.last_checkpoint = record
            state.num_checkpoints += 1
            state.compression_ratios.append(record.compression_ratio)
            state.drain_times.append(pending.seconds)
            self._compute.rebase(record.compute_seconds_at_completion)
            self._record(
                DrainCompletedEvent(
                    time=pending.end,
                    checkpoint_id=record.checkpoint_id,
                    iteration=record.iteration,
                )
            )
            self._record(
                CheckpointTakenEvent(
                    time=pending.end,
                    iteration=record.iteration,
                    seconds=pending.seconds,
                    compression_ratio=record.compression_ratio,
                    level=record.level,
                )
            )
            if (
                state.checkpoint_deferred
                and self._io.in_flight < self._staging_slots
            ):
                # The episode ends here; the still-due checkpoint-due event
                # drives the retake at the next boundary.
                self._calendar.post(
                    pending.end,
                    EventKind.STAGING_SLOT_FREED,
                    payload=record.checkpoint_id,
                ).cancel()
                state.checkpoint_deferred = False

    def _on_io_channel_failure(self, failure_time: float) -> None:
        """Settle the I/O channel at a failure: commit finished drains,
        discard the dirty rest.

        Drains that completed strictly before the failure are real
        checkpoints (recovery may restore them); anything still in flight is
        a dirty write — the payload never became recoverable, so it is
        dropped and the channel resets (the post-recovery restart re-stages
        from the restored state, it does not resume half-flushed buffers).
        No-op in blocking mode.
        """
        if not self._async:
            return
        state = self._state
        self._settle_drains(failure_time)
        for event in self._io_calendar.pop_due(math.inf):
            pending: PendingDrain = event.payload
            state.num_dirty_checkpoints += 1
            self._record(
                CheckpointDiscardedEvent(
                    time=failure_time, iteration=pending.record.iteration
                )
            )
        self._io.reset(failure_time)
        # The staging buffers are free again: a later deferral is a new
        # backpressure episode and records its own event (no slot-freed
        # posting — the slots were torn down, not drained).
        state.checkpoint_deferred = False

    # -- internals -----------------------------------------------------------
    def _set_due(self, time: float) -> None:
        """Move the checkpoint cadence: cancel the live ``checkpoint-due``
        posting and post the new due time (lazy cancellation)."""
        self._state.next_checkpoint_due = time
        if self._due_event is not None:
            self._due_event.cancel()
        self._due_event = self._calendar.post(time, EventKind.CHECKPOINT_DUE)

    def _consume_strike(self, failure_time: float, phase: str) -> None:
        """Record the strike, re-arm the injector, re-post its calendar entry."""
        event = self._injector.consume(failure_time, phase)
        self._record(
            FailureHitEvent(time=failure_time, phase=phase, index=event.index)
        )
        self._injector.reschedule(self._calendar)

    def _checkpoint_allowed(
        self, it_state: IterationState, *, overdue_seconds: float = 0.0
    ) -> bool:
        """Whether a checkpoint may be taken at this iteration.

        Under the lossy scheme a recovery restarts the Krylov method from the
        checkpointed iterate, so the checkpoint is deferred to the method's
        natural restart boundary when the solver reports one (GMRES(k) cycle
        ends).  At paper scale the deferral is at most ``k`` iterations —
        negligible against the checkpoint interval — and it avoids throwing
        away a partially built Krylov cycle on every recovery.  If the
        deferral has already cost more than a quarter of the checkpoint
        interval (only possible on very small local problems, where a cycle is
        a large fraction of the whole run) the checkpoint is taken anyway.
        """
        if not self.scheme.lossy:
            return True
        if "cycle_end" in it_state.extras:
            if bool(it_state.extras["cycle_end"]) or bool(
                it_state.extras.get("converged", False)
            ):
                return True
            return overdue_seconds > 0.25 * self.checkpoint_interval_seconds
        return True

    def _solve_once(self, x_current, resume, iteration_offset):
        remaining = None
        if self.max_total_iterations is not None:
            remaining = max(1, self.max_total_iterations - iteration_offset)
        if self._replay is not None:
            return self._replay.solve_phase(
                x_current, resume, iteration_offset, remaining, self._on_compute
            )
        return self.solver.solve(
            self.b,
            x0=x_current,
            callback=self._on_compute,
            iteration_offset=iteration_offset,
            max_iter=remaining,
            resume_state=resume,
        )

    def _apply_survival(self) -> None:
        """Draw which multilevel checkpoints survived the failure just hit.

        PFS-only scenarios keep every checkpoint (no-op).  Under ``fti``
        scenarios each stored checkpoint survives with its level's
        probability; newer casualties are discarded and the engine falls back
        to the newest survivor — rebasing the rollback anchor so the extra
        lost compute is re-executed too.
        """
        state = self._state
        if self._store is None or not state.records:
            return
        survivor_id = self._store.surviving_id()
        if (
            survivor_id is not None
            and state.last_checkpoint is not None
            and survivor_id == state.last_checkpoint.checkpoint_id
        ):
            return
        for checkpoint_id in sorted(state.records):
            if survivor_id is None or checkpoint_id > survivor_id:
                self._store.delete(checkpoint_id)
        state.records = {
            checkpoint_id: record
            for checkpoint_id, record in state.records.items()
            if survivor_id is not None and checkpoint_id <= survivor_id
        }
        new_last = (
            state.records.get(survivor_id) if survivor_id is not None else None
        )
        state.last_checkpoint = new_last
        self._compute.rebase(
            0.0 if new_last is None else new_last.compute_seconds_at_completion
        )

    def _prune_unreachable_records(self) -> None:
        """Drop checkpoints no survival draw can ever return.

        ``surviving_id`` scans newest-first and always stops at a checkpoint
        whose level survives with certainty (PFS in the default policy), so
        anything older than the newest certain survivor is unreachable as a
        fallback — and never drawn for, so pruning does not perturb the
        survival RNG stream.  This bounds retention at one level cycle
        instead of growing with run length.
        """
        state = self._state
        survival = self._store.policy.survival_probability
        certain = [
            checkpoint_id
            for checkpoint_id, record in state.records.items()
            if survival[CheckpointLevel(record.level)] >= 1.0
        ]
        if not certain:
            return
        newest_certain = max(certain)
        for checkpoint_id in sorted(state.records):
            if checkpoint_id < newest_certain:
                self._store.delete(checkpoint_id)
                del state.records[checkpoint_id]

    def _dedup_fraction(self, snapshot: PipelineSnapshot) -> float:
        """Fraction of this payload's bytes a dedup backend actually ships.

        1.0 (exact) for every non-dedup backend.  For a chunked backend,
        only the chunks the pool does not already hold travel to storage;
        the fraction previews that split on the real serialized payload
        before anything is committed.
        """
        preview = getattr(self._backend, "preview_write", None)
        if preview is None:
            return 1.0
        nbytes, unique_new = preview(snapshot.payload)
        if nbytes <= 0:
            return 1.0
        return unique_new / nbytes

    def _level_multiplier(self, level: Optional[int]) -> float:
        """FTI cost multiplier of ``level`` (1.0 outside the level cycle)."""
        if level is None:
            return 1.0
        return self._store.policy.cost_multiplier[CheckpointLevel(level)]

    def _recovery_seconds(self, last: Optional[CheckpointRecord]) -> float:
        if last is None:
            # Nothing to read back: only the environment and static data are
            # rebuilt before restarting from the initial guess.
            return self.cluster.recovery_seconds(
                0.0, 0.0, static_bytes=self.scale.static_bytes, compressed=False
            )
        return self.cluster.recovery_seconds(
            last.model_uncompressed_bytes,
            last.model_compressed_bytes,
            static_bytes=self.scale.static_bytes,
            compressed=self.scheme.uses_compression,
            read_cost_multiplier=self._level_multiplier(last.level),
        )

    def _advance_with_failures(self, seconds: float, category: str) -> None:
        """Advance the clock by ``seconds``, restarting the phase if a failure hits.

        A failure during recovery forces the recovery to start over, bounded
        by :data:`RECOVERY_RETRY_BUDGET` to keep pathological seeds
        terminating.  When the budget is exhausted one final *uninterrupted*
        advance is performed, so the phase genuinely completes and the time
        accounting matches a finished phase (the old runner treated the last
        interrupted attempt as complete).
        """
        clock = self._clock
        injector = self._injector
        for _ in range(RECOVERY_RETRY_BUDGET):
            start = clock.now
            clock.advance(seconds, category)
            if injector.peek() > clock.now:
                return
            self._consume_strike(injector.strike_time(start), category)
        clock.advance(seconds, category)

    def _record(self, event) -> None:
        if self.events is not None:
            event.stamp(self._sequence.claim())
            self.events.append(event)

    def _build_report(
        self, converged: bool, total_iterations: int, restarts_from_scratch: int
    ) -> FTRunReport:
        clock = self._clock
        state = self._state
        total_ckpt_seconds = clock.time_in("checkpoint")
        total_recovery_seconds = clock.time_in("recovery")
        productive_seconds = self.baseline.iterations * self.iteration_seconds
        ratios = state.compression_ratios or [1.0]
        info: Dict[str, object] = {
            "iteration_seconds": self.iteration_seconds,
            "num_processes": self.cluster.num_processes,
            "mtti_seconds": self.mtti_seconds,
            "dynamic_vectors": self._vectors,
        }
        if not self.scenario.is_paper_regime:
            info["failure_model"] = self.scenario.failure_model
            info["recovery_levels"] = self.scenario.recovery_levels
        # A constant, kept so every pinned report stays byte-identical.
        info["checkpoint_costing"] = "measured"
        if self._backend is not None:
            info["store_backend"] = self.scenario.store_backend
            dedup_stats = getattr(self._backend, "dedup_stats", None)
            if dedup_stats is not None:
                # Byte counts only — deterministic payload accounting, never
                # host wall-clock (WriteReceipt.seconds stays out of reports).
                stats = dedup_stats()
                info["logical_bytes"] = stats["logical_bytes"]
                info["unique_bytes"] = stats["unique_bytes"]
                ratio = stats["dedup_ratio"]
                info["dedup_ratio"] = (
                    ratio if ratio == ratio and ratio != float("inf") else None
                )
        if self._async:
            info["write_mode"] = "async"
            info["io_drain_seconds"] = float(sum(state.drain_times))
            info["mean_drain_seconds"] = (
                float(np.mean(state.drain_times)) if state.drain_times else 0.0
            )
            info["io_interference_seconds"] = clock.time_in("io_interference")
            info["num_dirty_checkpoints"] = state.num_dirty_checkpoints
        if state.gave_up:
            info["gave_up"] = True
            info["give_up_reason"] = state.give_up_reason
        return FTRunReport(
            scheme=self.scheme.name,
            method=self.method,
            converged=converged,
            total_iterations=total_iterations,
            baseline_iterations=self.baseline.iterations,
            num_failures=self._injector.count,
            num_checkpoints=state.num_checkpoints,
            num_restarts_from_scratch=restarts_from_scratch,
            total_seconds=clock.now,
            productive_seconds=productive_seconds,
            checkpoint_seconds=total_ckpt_seconds,
            recovery_seconds=total_recovery_seconds,
            checkpoint_interval_seconds=self.checkpoint_interval_seconds,
            mean_checkpoint_seconds=float(np.mean(state.checkpoint_times))
            if state.checkpoint_times
            else 0.0,
            mean_recovery_seconds=float(np.mean(state.recovery_times))
            if state.recovery_times
            else 0.0,
            mean_compression_ratio=float(np.mean(ratios)),
            residual_trace=list(state.residual_trace),
            info=info,
        )
