"""Typed events of the fault-tolerance engine's virtual timeline.

The engine narrates one failure-injected run as a sequence of discrete
events — compute, checkpoint, failure, recovery, rollback, give-up — each
stamped with the virtual time at which it *completed*.  The
:class:`EventLog` is the engine's replacement for "print-debugging a dict
closure": tests assert on exact event orderings (e.g. that an overdue
checkpoint is retaken immediately after a rollback), and scenario studies
can reconstruct the full timeline from it.

Recording is opt-in (``FaultToleranceEngine(record_events=True)``): a
paper-scale run emits one compute event per iteration, so the default keeps
the hot loop allocation-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional, Type, TypeVar

__all__ = [
    "EngineEvent",
    "ComputeEvent",
    "CheckpointTakenEvent",
    "CheckpointDeferredEvent",
    "CheckpointDiscardedEvent",
    "DrainStartedEvent",
    "DrainCompletedEvent",
    "FailureHitEvent",
    "RecoveryEvent",
    "RollbackEvent",
    "GiveUpEvent",
    "EventLog",
]


@dataclass(frozen=True)
class EngineEvent:
    """Base class: ``time`` is the virtual time the event completed.

    ``seq`` is the event's position in the run's event sequence — stamped
    at recording time from the same counter every scheduling decision of
    the run claims from, so one recorded run carries a single total order
    across scheduled and observed events.  ``-1`` means the event was built
    outside an engine run.
    """

    time: float
    seq: int = field(default=-1, kw_only=True, compare=False)

    def stamp(self, seq: int) -> None:
        """Assign the sequence number (events stay frozen otherwise)."""
        object.__setattr__(self, "seq", int(seq))


@dataclass(frozen=True)
class ComputeEvent(EngineEvent):
    """One solver iteration advanced the timeline by ``seconds``."""

    iteration: int
    seconds: float
    residual_norm: float


@dataclass(frozen=True)
class CheckpointTakenEvent(EngineEvent):
    """A checkpoint completed (and became the newest recovery point)."""

    iteration: int
    seconds: float
    compression_ratio: float
    level: Optional[int] = None  # CheckpointLevel value under multilevel runs


@dataclass(frozen=True)
class CheckpointDeferredEvent(EngineEvent):
    """An async checkpoint stayed due because all staging slots were busy.

    Backpressure: with every staging buffer occupied by an in-flight drain
    (``MachineSpec.async_staging_slots``), the compute channel cannot stage
    another payload, so the capture is deferred and retried once a drain
    settles.  Recorded once per deferral episode, not once per iteration.
    """

    iteration: int
    pending: int  # drains in flight when the capture was deferred


@dataclass(frozen=True)
class CheckpointDiscardedEvent(EngineEvent):
    """A failure landed inside the checkpoint window; the write was discarded.

    Under asynchronous write mode this also marks a *dirty* drain: a failure
    struck while the staged payload was still flushing on the I/O channel,
    so the checkpoint never became recoverable.
    """

    iteration: int


@dataclass(frozen=True)
class DrainStartedEvent(EngineEvent):
    """An async checkpoint was staged and its I/O-channel drain enqueued.

    ``time`` is the compute-channel time the capture finished; the drain
    itself occupies ``[drain_start, drain_start + seconds]`` on the I/O
    channel (``drain_start`` may be later than ``time`` when an earlier
    drain still holds the channel).
    """

    checkpoint_id: int
    iteration: int
    drain_start: float
    seconds: float


@dataclass(frozen=True)
class DrainCompletedEvent(EngineEvent):
    """An async drain finished; the checkpoint is now recoverable.

    ``time`` is the I/O-channel completion time (the event is recorded when
    the engine next settles the drain queue, which may be later on the
    compute channel).
    """

    checkpoint_id: int
    iteration: int


@dataclass(frozen=True)
class FailureHitEvent(EngineEvent):
    """An injected failure struck during ``phase``."""

    phase: str
    index: int


@dataclass(frozen=True)
class RecoveryEvent(EngineEvent):
    """A recovery (read + decompress + static rebuild) completed."""

    seconds: float
    from_iteration: int  # 0 when restarting from scratch
    from_scratch: bool
    level: Optional[int] = None


@dataclass(frozen=True)
class RollbackEvent(EngineEvent):
    """Re-execution of the compute lost since the restored checkpoint."""

    seconds: float


@dataclass(frozen=True)
class GiveUpEvent(EngineEvent):
    """The run abandoned before convergence (restart/iteration cap)."""

    reason: str
    iterations_reached: int


E = TypeVar("E", bound=EngineEvent)


class EventLog:
    """Append-only record of engine events, in dispatch order.

    ``max_events`` opts into a ring buffer keeping only the newest entries —
    million-event campaign cells can record the tail of their timeline
    without unbounded RSS.  The default (None) keeps every event, as tests
    that assert on full orderings expect.
    """

    __slots__ = ("events", "max_events", "total_appended")

    def __init__(
        self,
        events: Optional[List[EngineEvent]] = None,
        *,
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None:
            max_events = int(max_events)
            if max_events < 1:
                raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: "List[EngineEvent] | Deque[EngineEvent]" = (
            deque(events or (), maxlen=max_events)
            if max_events is not None
            else list(events or ())
        )
        #: Lifetime append count — exceeds ``len(self)`` once the ring wraps.
        self.total_appended = len(self.events)

    def append(self, event: EngineEvent) -> None:
        self.events.append(event)
        self.total_appended += 1

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (0 when unbounded)."""
        return self.total_appended - len(self.events)

    def of_type(self, event_type: Type[E]) -> List[E]:
        """All recorded events of one type, in order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def __iter__(self) -> Iterator[EngineEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
