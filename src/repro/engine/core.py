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
  :class:`~repro.checkpoint.multilevel.MultilevelPolicy`, cheap levels may
  not survive a failure (:func:`~repro.checkpoint.multilevel.surviving_id`
  draws over the engine's one checkpoint ledger, ``EngineState.records``),
  and a recovery is priced at the level of the checkpoint it actually
  restores instead of always charging a PFS read;
* every checkpoint is snapshotted and restored through the single
  :class:`~repro.checkpoint.pipeline.CheckpointPipeline`: the solver's
  declared state is compressed per variable, packed into one serialized
  payload, and priced from that payload's measured per-variable byte sizes.
  The payload stays in the engine's checkpoint record; storage is priced
  through the scenario's profile, never performed (the ``chunked``
  backend's dedup pool is the one store that holds bytes).

Reports are byte-pinned by the golden-report fixtures: the paper regime
(the default :class:`~repro.engine.scenario.Scenario`) across every solver
and scheme, and the async, multilevel, bursty and store-backend axes.

Timeline state
--------------
Three things can interrupt or gate the compute loop: a failure strikes, a
checkpoint comes due, a drain finishes.  Each is plain state:

* the **next failure time** — the injector's pending arrival
  (:meth:`~repro.cluster.failures.FailureInjector.peek`), re-armed only when
  a strike is consumed;
* the **next checkpoint due time** — ``EngineState.next_checkpoint_due``,
  moved only by ``_set_due``;
* the **drain queue** — a first-in-first-out ``deque`` of
  :class:`PendingDrain`, one per staged checkpoint.

The compute loop gates on one cached float, the earlier of the two compute
times, refreshed whenever either moves; so the hot loop's only per-iteration
timeline work is one float comparison.  A strike that lands *inside* an
iteration window preempts a checkpoint that came due earlier — the
checkpoint only runs at the iteration boundary, by which point the machine
is already down (``_dispatch_boundary``).

Every scheduling decision — the initial and each re-armed failure arrival,
each due-time change, each solver-segment boundary, each staged drain and
each staging slot a commit frees — claims one number from the run's event
sequence, and so does every recorded event.  ``events_processed`` is that
count, and the ``seq`` stamps of a recorded
:class:`~repro.engine.events.EventLog` give one total order over the run.

Two-channel timeline (``write_mode="async"``)
---------------------------------------------
The paper — and the default ``blocking`` mode — charges the whole checkpoint
write inline on one serialized clock.  Under the scenario's asynchronous
write mode the timeline splits into two channels
(:mod:`repro.engine.calendar`):

* the **compute channel** (:class:`~repro.engine.calendar.ComputeChannel`)
  — iterations, inline captures, recoveries, rollbacks.  It also anchors
  the incremental rollback accounting: the compute-seconds total at the
  newest committed checkpoint, so the rollback span is an O(1) difference.
* the **I/O channel** (:class:`~repro.engine.calendar.Channel`) — one drain
  per staged checkpoint, serialized on the channel's ``busy_until`` clock
  and priced at the contended async bandwidth
  (:meth:`~repro.cluster.machine.ClusterModel.drain_seconds`); while a drain
  is in flight, compute iterations pay a small interference surcharge.

Because the I/O channel is serialized, each drain ends no earlier than the
one staged before it, so the drain queue completes from the left.
Completions are only *observable* from the compute channel at
synchronization points — checkpoint entry, a failure, and the end of the
run — where ``_settle_drains`` commits every drain that ended by then.  A
checkpoint becomes *recoverable only when its drain commits* — a failure
mid-drain discards the dirty write (the queue is cleared) and recovery
falls back to the previous completed checkpoint.  When every staging slot
holds an in-flight drain the capture defers (backpressure), and the commit
that frees a slot ends the deferral episode.  Every payload is a full one,
as in blocking mode: a drain ships, and a recovery reads, exactly the
checkpoint's own bytes.

Blocking mode takes none of these paths and stays byte-identical to the
single-clock engine (pinned by the equivalence suite).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.chunked import ChunkedStore
from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
    survival_rng,
    surviving_id,
)
from repro.checkpoint.pipeline import CheckpointPipeline, PipelineSnapshot
from repro.checkpoint.store import SimulatedObjectStore
from repro.cluster.machine import PAPER_ITERATION_SECONDS, ClusterModel
from repro.engine.calendar import Channel, ComputeChannel
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
    serve_payload,
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

    An entry of the engine's drain queue.  The record is fully priced and
    holds its payload, but it is *not* recoverable until the drain commits:
    a failure before ``end`` discards it (dirty write) and recovery falls
    back to the previous completed checkpoint.
    """

    record: CheckpointRecord
    #: I/O-channel time the drain finishes.
    end: float
    seconds: float


@dataclass
class EngineState:
    """Explicit mutable state of one run.

    The failure arrival lives on the injector, the channel clocks and the
    drain queue on the engine; this dataclass keeps the checkpoint cadence
    and the run's *outcome* state — checkpoints, counters, traces.
    """

    next_checkpoint_due: float
    last_checkpoint: Optional[CheckpointRecord] = None
    #: The checkpoint ledger: every live checkpoint by id — only populated
    #: under multilevel scenarios, where a failure may destroy recent
    #: cheap-level checkpoints and the recovery falls back to an older
    #: survivor.
    records: Dict[int, CheckpointRecord] = field(default_factory=dict)
    #: Committed checkpoints; under ``fti`` also the level cycle's position.
    num_checkpoints: int = 0
    num_inline_failures: int = 0
    compression_ratios: List[float] = field(default_factory=list)
    checkpoint_times: List[float] = field(default_factory=list)
    recovery_times: List[float] = field(default_factory=list)
    residual_trace: List[Tuple[int, float]] = field(default_factory=list)
    interrupted_at: Optional[int] = None
    gave_up: bool = False
    give_up_reason: Optional[str] = None
    #: Id the next checkpoint gets.  Ids are assigned when a write window
    #: completes; ``num_checkpoints`` only counts commits, so the two part
    #: once a failure discards an in-flight async drain.
    next_checkpoint_id: int = 0
    # -- asynchronous (two-channel) write mode only ------------------------
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
        #: The FTI level cycle and the survival draws' generator (both None
        #: under PFS-only recovery).
        self._policy: Optional[MultilevelPolicy] = None
        self._survival_rng = None
        #: The chunk pool of the ``chunked`` backend, the one store that holds
        #: payload bytes: its dedup preview prices each write.  Every other
        #: backend is priced, never written — the checkpoint records hold the
        #: payloads.
        self._dedup: Optional[ChunkedStore] = None
        self._pipeline: Optional[CheckpointPipeline] = None
        self._state: EngineState = EngineState(
            next_checkpoint_due=self.checkpoint_interval_seconds
        )
        self._vectors: int = 0
        # Timeline state (see the module docstring).
        self._seq = 0
        self._next_event_time = 0.0
        self._drains: Deque[PendingDrain] = deque()
        self._compute = ComputeChannel()
        self._io = Channel()

    @property
    def events_processed(self) -> int:
        """Event sequence numbers claimed so far — every scheduling decision
        and recorded event of the run (the benchmark's throughput
        numerator)."""
        return self._seq

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
        self._seq = 0
        self._drains = deque()
        self._compute = ComputeChannel()
        self._io = Channel()
        self._injector = self.scenario.build_injector(self.mtti_seconds, self.seed)
        self._async = self.scenario.asynchronous
        # Latent arrivals strike at the window that finds them on the
        # two-channel timeline only; the blocking timeline keeps the stale
        # arrival untouched (byte-pinned by the paper-regime golden reports).
        self._injector.latent_clamp = self._async
        if self._injector.model is not None:
            self._claim()  # the first failure arrival
        if self.scenario.multilevel:
            self._policy = self.multilevel_policy or MultilevelPolicy()
            self._survival_rng = survival_rng(self.seed)
        else:
            self._policy = self._survival_rng = None
        self._dedup = (
            ChunkedStore(SimulatedObjectStore())
            if self.scenario.store_backend == "chunked"
            else None
        )
        self._staging_slots = int(self.cluster.spec.async_staging_slots)
        self._pipeline = CheckpointPipeline(self.scheme, solver=self.solver)
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
        # Same switch, second cache: coded payloads are memoized by trajectory
        # position (:meth:`_snapshot`).  An identity payload is a copy plus an
        # index: memoizing it saves little time and holds raw states in memory.
        self._memo_context: Optional[bytes] = (
            self._replay.context + scheme_fingerprint(self.scheme)
            if self._replay is not None and self.scheme.uses_compression
            else None
        )

        x_current = self.x0.copy()
        resume: Optional[ResumeState] = None
        iteration_offset = 0
        restarts_from_scratch = 0
        converged = False
        total_iterations = 0
        restarts = 0

        while True:
            try:
                result = self._solve_once(x_current, resume, iteration_offset)
            except _FailureSignal:
                result = None
            self._claim()  # the solver-segment boundary

            if result is not None:
                total_iterations = iteration_offset + result.iterations
                converged = result.converged
                if (
                    not converged
                    and self.max_total_iterations is not None
                    and total_iterations >= self.max_total_iterations
                ):
                    # The iteration budget — not the solver — ended the run.
                    self._give_up("max_total_iterations", total_iterations)
                break

            # ---- failure path: recover from the last complete checkpoint ----
            restarts += 1
            if restarts > self.max_restarts:
                # Give up — but report the progress actually made instead of
                # a stale zero (the interrupted iteration is the furthest
                # point the timeline reached).
                total_iterations = (
                    int(state.interrupted_at)
                    if state.interrupted_at is not None
                    else iteration_offset
                )
                self._give_up("max_restarts", total_iterations)
                break
            last = self._recover()
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
                total_iterations = iteration_offset
                self._give_up("max_total_iterations", total_iterations)
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
        append the residual trace, and compare the cached next event time
        against the clock.  Failure strikes and checkpoint cadence only cost
        anything when one is actually due (:meth:`_dispatch_boundary`).
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
        if self._next_event_time <= clock.now:
            self._dispatch_boundary(it_state, start)

    def _dispatch_boundary(self, it_state: IterationState, window_start: float) -> None:
        """Act on the failure strike and checkpoint due at this boundary.

        * The strike first — a strike inside the window preempts the
          checkpoint, which only runs at the boundary (by then the machine is
          already down).  At most one strike is delivered per boundary; an
          arrival re-armed into this same window is found by the *next*
          window, exactly as the per-phase window checks did.
        * The checkpoint second, against the due time the strike handler may
          just have reset.

        Drain completions are never delivered here — the compute channel only
        observes them at synchronization points.
        """
        clock = self._clock
        injector = self._injector
        state = self._state
        if injector.peek() <= clock.now:
            self._on_failure(it_state, injector.strike_time(window_start), "compute")
        if clock.now >= state.next_checkpoint_due and self._checkpoint_allowed(
            it_state, overdue_seconds=clock.now - state.next_checkpoint_due
        ):
            self._on_checkpoint(it_state)

    def _on_failure(
        self, it_state: IterationState, failure_time: float, phase: str
    ) -> None:
        """A failure struck the compute or checkpoint window ending now.

        Exact schemes pay recovery plus rollback inline
        (:meth:`_on_inline_failure`) and the solve goes on.  The lossy scheme
        interrupts the solve: the run loop recovers and restarts it from the
        restored iterate.  A failure inside a checkpoint window also pushes
        the due time a full interval out.
        """
        if not self.scheme.lossy:
            self._on_inline_failure(failure_time, phase)
            return
        self._consume_strike(failure_time, phase)
        self._on_io_channel_failure(failure_time)
        self._state.interrupted_at = it_state.iteration
        if phase == "checkpoint":
            self._set_due(self._clock.now + self.checkpoint_interval_seconds)
        raise _FailureSignal(it_state.iteration, f"failure during {phase}")

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
        self._recover()
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
        actually contains.  Blocking and async writes share one write
        window: a blocking write stalls the solver for the whole priced
        write, an async one only for compression plus node-local staging
        (the storage write then drains on the I/O channel,
        :meth:`_enqueue_drain`).  A failure landing inside the window
        discards the incomplete checkpoint before anything is committed or
        staged (the previous complete one remains valid); under the lossy
        scheme it also interrupts the solve, matching the paper's
        methodology where failures may occur during the checkpoint/recovery
        period.
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
            if len(self._drains) >= self._staging_slots:
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
                            pending=len(self._drains),
                        )
                    )
                return
        snapshot = self._snapshot(it_state, state.next_checkpoint_id)

        model_uncompressed, model_compressed = snapshot.scaled_bytes(self.scale)
        ratio = model_uncompressed / max(model_compressed, 1e-12)
        level: Optional[int] = None
        if self._policy is not None:
            # Drains still in flight commit first, so they hold the level
            # cycle's next positions.
            level = int(
                self._policy.level_for(state.num_checkpoints + len(self._drains))
            )
        # A dedup backend only ships the chunks the pool does not already
        # hold; duplicate bytes never hit the wire, so they cost nothing.
        ship_compressed = model_compressed * self._dedup_fraction(snapshot)
        if self._async:
            seconds = self.cluster.capture_seconds(
                model_uncompressed,
                model_compressed,
                compressed=self.scheme.uses_compression,
            )
        else:
            seconds = self.cluster.checkpoint_seconds(
                model_uncompressed,
                ship_compressed,
                compressed=self.scheme.uses_compression,
                write_cost_multiplier=self._level_multiplier(level),
            )

        start = clock.now
        clock.advance(seconds, "checkpoint")
        state.checkpoint_times.append(seconds)
        if self._injector.peek() <= clock.now:
            failure_time = self._injector.strike_time(start)
            # Incomplete checkpoint: do not record, commit or stage it.
            self._record(
                CheckpointDiscardedEvent(time=clock.now, iteration=it_state.iteration)
            )
            self._on_failure(it_state, failure_time, "checkpoint")
            return

        record = CheckpointRecord(
            checkpoint_id=state.next_checkpoint_id,
            iteration=it_state.iteration,
            snapshot=snapshot,
            compression_ratio=ratio,
            model_uncompressed_bytes=model_uncompressed,
            model_compressed_bytes=model_compressed,
            compute_seconds_at_completion=self._compute.seconds_total,
            level=level,
        )
        state.next_checkpoint_id += 1
        if self._async:
            event = self._enqueue_drain(record, ship_compressed)
        else:
            self._commit(record)
            self._compute.mark()
            event = CheckpointTakenEvent(
                time=clock.now,
                iteration=it_state.iteration,
                seconds=seconds,
                compression_ratio=ratio,
                level=level,
            )
        self._set_due(clock.now + self.checkpoint_interval_seconds)
        self._record(event)

    # -- asynchronous I/O channel --------------------------------------------
    def _enqueue_drain(
        self, record: CheckpointRecord, ship_compressed: float
    ) -> DrainStartedEvent:
        """Stage a captured checkpoint's storage write on the I/O channel.

        The write acquires the channel — starting when the channel frees up
        — and joins the drain queue.  Until a synchronization point settles
        it the checkpoint is a *dirty* write: a failure discards it and
        recovery falls back to the previous completed checkpoint.  Returns
        the event that narrates the staging.
        """
        now = self._clock.now
        seconds = self.cluster.drain_seconds(
            ship_compressed, write_cost_multiplier=self._level_multiplier(record.level)
        )
        start, end = self._io.acquire(now, seconds)
        self._drains.append(PendingDrain(record=record, end=end, seconds=seconds))
        self._claim()  # the drain's completion
        return DrainStartedEvent(
            time=now,
            checkpoint_id=record.checkpoint_id,
            iteration=record.iteration,
            drain_start=start,
            seconds=seconds,
        )

    def _settle_drains(self, until: float) -> None:
        """Commit every queued drain that finished by I/O-channel time ``until``.

        The serialized channel ends each drain no earlier than the one
        before it, so the queue settles from the left.  A committed drain
        becomes the newest recovery point (entering the multilevel survival
        cycle under ``fti`` scenarios) and the rollback anchor rebases onto
        it.  If the commit frees a staging slot while a capture is deferred,
        the backpressure episode ends.
        """
        drains = self._drains
        state = self._state
        while drains and drains[0].end <= until:
            pending = drains.popleft()
            record = pending.record
            self._commit(record)
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
            if state.checkpoint_deferred and len(drains) < self._staging_slots:
                # The episode ends here; the checkpoint still due is retaken
                # at the next boundary.
                self._claim()  # the freed staging slot
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
        for pending in self._drains:
            state.num_dirty_checkpoints += 1
            self._record(
                CheckpointDiscardedEvent(
                    time=failure_time, iteration=pending.record.iteration
                )
            )
        self._drains.clear()
        self._io.reset(failure_time)
        # The staging buffers are free again: a later deferral is a new
        # backpressure episode and records its own event (no slot is
        # counted as freed — the slots were torn down, not drained).
        state.checkpoint_deferred = False

    # -- internals -----------------------------------------------------------
    def _claim(self) -> int:
        """Claim the next number of the run's event sequence."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def _rearm(self) -> None:
        """Refresh the cached time of the next failure strike or due checkpoint."""
        self._next_event_time = min(
            self._injector.peek(), self._state.next_checkpoint_due
        )

    def _set_due(self, time: float) -> None:
        """Move the checkpoint cadence (claims a sequence number)."""
        self._state.next_checkpoint_due = time
        self._claim()
        self._rearm()

    def _consume_strike(self, failure_time: float, phase: str) -> None:
        """Record the strike and re-arm the injector's next arrival."""
        event = self._injector.consume(failure_time, phase)
        self._record(
            FailureHitEvent(time=failure_time, phase=phase, index=event.index)
        )
        self._claim()  # the re-armed arrival
        self._rearm()

    def _give_up(self, reason: str, iterations_reached: int) -> None:
        """End the run before convergence."""
        state = self._state
        state.gave_up = True
        state.give_up_reason = reason
        self._record(
            GiveUpEvent(
                time=self._clock.now,
                reason=reason,
                iterations_reached=iterations_reached,
            )
        )

    def _snapshot(self, it_state: IterationState, checkpoint_id: int) -> PipelineSnapshot:
        """Serialize a checkpoint of ``it_state``, from the payload memo when
        it holds the state's trajectory position — looked up before ``x`` or
        the resume vectors are read, so a hit hashes, copies and solves nothing."""

        def build() -> PipelineSnapshot:
            resume = (
                self.solver.capture_resume_state(it_state)
                if self.scheme.checkpoint_krylov_state
                else None
            )
            return self._pipeline.snapshot(
                it_state.x,
                iteration=it_state.iteration,
                resume_state=resume,
                residual_norm=it_state.residual_norm,
                b_norm=self.b_norm,
                checkpoint_id=checkpoint_id,
            )

        if self._memo_context is None:
            return build()
        key = self._replay.memo_key(it_state, self._memo_context, self.b_norm)
        return serve_payload(get_global_snapshot_memo(), key, checkpoint_id, build)

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

    def _recover(self) -> Optional[CheckpointRecord]:
        """Recovery phase after a failure; returns the checkpoint it read.

        Draws which checkpoints survived, then reads back the newest
        survivor — or, with none left, only rebuilds the environment and
        static data (``None``: restart from the initial guess).
        """
        state = self._state
        self._apply_survival()
        last = state.last_checkpoint
        recovery_seconds = self._recovery_seconds(last)
        self._advance_with_failures(recovery_seconds, "recovery")
        state.recovery_times.append(recovery_seconds)
        self._record(
            RecoveryEvent(
                time=self._clock.now,
                seconds=recovery_seconds,
                from_iteration=0 if last is None else last.iteration,
                from_scratch=last is None,
                level=None if last is None else last.level,
            )
        )
        return last

    def _apply_survival(self) -> None:
        """Draw which multilevel checkpoints survived the failure just hit.

        PFS-only scenarios keep every checkpoint (no-op).  Under ``fti``
        scenarios each checkpoint of the ledger survives with its level's
        probability; newer casualties are discarded and the engine falls back
        to the newest survivor — rebasing the rollback anchor so the extra
        lost compute is re-executed too.
        """
        state = self._state
        if self._policy is None or not state.records:
            return
        survivor_id = surviving_id(state.records, self._policy, self._survival_rng)
        if (
            survivor_id is not None
            and state.last_checkpoint is not None
            and survivor_id == state.last_checkpoint.checkpoint_id
        ):
            return
        for checkpoint_id in sorted(state.records):
            if survivor_id is None or checkpoint_id > survivor_id:
                self._drop(checkpoint_id)
        new_last = (
            state.records.get(survivor_id) if survivor_id is not None else None
        )
        state.last_checkpoint = new_last
        self._compute.rebase(
            0.0 if new_last is None else new_last.compute_seconds_at_completion
        )

    def _prune_unreachable_records(self) -> None:
        """Drop checkpoints no survival draw can ever return.

        :func:`~repro.checkpoint.multilevel.surviving_id` scans newest-first
        and always stops at a checkpoint whose level survives with certainty
        (PFS in the default policy), so anything older than the newest
        certain survivor is unreachable as a fallback — and never drawn for,
        so pruning does not perturb the survival RNG stream.  This bounds
        retention at one level cycle instead of growing with run length.
        """
        state = self._state
        survival = self._policy.survival_probability
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
                self._drop(checkpoint_id)

    def _commit(self, record: CheckpointRecord) -> None:
        """Make a completed checkpoint the newest recovery point.

        Under ``fti`` the checkpoint joins the ledger a survival draw may
        fall back to.
        """
        state = self._state
        # Pool before pruning: chunks shared with a pruned checkpoint stay
        # pooled instead of counting as new unique bytes.
        self._dedup_write(record)
        if self._policy is not None:
            state.records[record.checkpoint_id] = record
            self._prune_unreachable_records()
        state.last_checkpoint = record
        state.num_checkpoints += 1
        state.compression_ratios.append(record.compression_ratio)

    def _drop(self, checkpoint_id: int) -> None:
        """Discard a live ``fti`` checkpoint a recovery can no longer use."""
        self._dedup_delete(self._state.records.pop(checkpoint_id))

    # -- the chunked backend's dedup pool ------------------------------------
    @staticmethod
    def _replica_key(checkpoint_id: int) -> str:
        """Blob key of a PARTNER-level checkpoint's buddy replica."""
        return f"replica/L{int(CheckpointLevel.PARTNER)}/{int(checkpoint_id)}"

    def _dedup_fraction(self, snapshot: PipelineSnapshot) -> float:
        """Fraction of this payload's bytes the chunked backend ships.

        1.0 (exact) for every other backend.  Only the chunks the pool does
        not already hold travel to storage; the fraction previews that split
        on the real serialized payload before anything is committed.
        """
        if self._dedup is None:
            return 1.0
        nbytes, unique_new = self._dedup.preview_write(snapshot.payload)
        if nbytes <= 0:
            return 1.0
        return unique_new / nbytes

    def _dedup_write(self, record: CheckpointRecord) -> None:
        """Pool a committed payload, plus its buddy replica at PARTNER level
        (the replica shares the primary's chunks, so it adds no unique bytes)."""
        if self._dedup is None:
            return
        payload = record.snapshot.payload
        self._dedup.write(record.checkpoint_id, payload)
        if record.level == CheckpointLevel.PARTNER:
            self._dedup.put_chunked_blob(self._replica_key(record.checkpoint_id), payload)

    def _dedup_delete(self, record: CheckpointRecord) -> None:
        """Release a dropped checkpoint's chunks (and its replica's)."""
        if self._dedup is None:
            return
        self._dedup.delete(record.checkpoint_id)
        if record.level == CheckpointLevel.PARTNER:
            self._dedup.delete_chunked_blob(self._replica_key(record.checkpoint_id))

    def _level_multiplier(self, level: Optional[int]) -> float:
        """FTI cost multiplier of ``level`` (1.0 outside the level cycle)."""
        if level is None:
            return 1.0
        return self._policy.cost_multiplier[CheckpointLevel(level)]

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
            event.stamp(self._claim())
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
        if self.scenario.store_backend != "pfs":
            info["store_backend"] = self.scenario.store_backend
        if self._dedup is not None:
            # Byte counts only — deterministic payload accounting, never
            # host wall-clock (WriteReceipt.seconds stays out of reports).
            stats = self._dedup.dedup_stats()
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
