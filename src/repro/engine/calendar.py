"""Typed event calendar and channel objects for the fault-tolerance engine.

The engine's virtual timeline is a discrete-event simulation: the solver
pumps compute iterations, and everything else that can happen — a failure
arrival, a drain finishing on the I/O channel, the checkpoint cadence coming
due — is a :class:`ScheduledEvent` posted to one :class:`EventCalendar`.
Handlers pull due events in deterministic ``(time, seq)`` order instead of
re-deriving "did a failure land in this window?" / "which drains finished?"
from scratch on every phase.

Determinism
-----------
Every posting claims a monotonically increasing sequence number from the
calendar; the heap orders by ``(time, seq)`` so simultaneous events resolve
in posting order, identically on every same-seed run.  The same counter
stamps the observed :class:`~repro.engine.events.EngineEvent` records, so a
recorded :class:`~repro.engine.events.EventLog` carries one global total
order across scheduled and observed events.

Cancellation is lazy: a cancelled entry stays in the heap and is skipped at
pop time (the standard DES trick — O(1) cancel, no re-heapify).

Channels
--------
:class:`Channel` owns a ``busy_until`` clock on one serialized resource.
The engine uses two:

* the **compute channel** — the solver's own clock (iterations, captures,
  recoveries, rollbacks) plus the incremental interference accounting that
  was previously re-derived per iteration;
* the **I/O channel** — checkpoint drains, serialized one after another.
  :meth:`Channel.reset` is the only way the clock goes backwards (a failure
  discards in-flight work), so a stale absolute ``busy_until`` can never be
  compared against a later ``max(now, busy_until)``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional

__all__ = [
    "EventKind",
    "ScheduledEvent",
    "SequenceCounter",
    "EventCalendar",
    "Channel",
    "ComputeChannel",
    "IOChannel",
]


class SequenceCounter:
    """Monotonic event-sequence source, shareable across calendars.

    The engine runs one calendar per channel but wants a *single* total
    order across every scheduled and recorded event of a run — both
    calendars (and the :class:`~repro.engine.events.EventLog` stamps) claim
    from the same counter.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def claim(self) -> int:
        seq = self.value
        self.value += 1
        return seq


class EventKind(str, Enum):
    """The typed vocabulary of schedulable engine events."""

    #: End of one solver segment (converged, interrupted, or budget-capped).
    COMPUTE_PHASE_END = "compute-phase-end"
    #: The checkpoint cadence comes due at this time.
    CHECKPOINT_DUE = "checkpoint-due"
    #: A staged drain finishes flushing on the I/O channel.
    DRAIN_COMPLETE = "drain-complete"
    #: The failure injector's next arrival.
    FAILURE_STRIKE = "failure-strike"
    #: A staging slot frees up while a capture is held back by backpressure.
    STAGING_SLOT_FREED = "staging-slot-freed"


@dataclass(slots=True)
class ScheduledEvent:
    """One entry on the calendar.

    ``seq`` is claimed from the calendar's global counter at posting time and
    breaks ties between simultaneous events deterministically (earlier
    posting wins).  ``payload`` carries the handler's context (a pending
    drain, a failure arrival, ...); ``cancelled`` marks lazily removed
    entries.
    """

    time: float
    seq: int
    kind: EventKind
    payload: object = None
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventCalendar:
    """A heapq of :class:`ScheduledEvent`, ordered by ``(time, seq)``.

    ``next_time`` is kept current on every post/pop so the engine's hot loop
    can gate dispatch on a single float comparison instead of touching the
    heap per iteration.
    """

    __slots__ = ("_heap", "_sequence", "next_time")

    def __init__(self, sequence: Optional[SequenceCounter] = None) -> None:
        self._heap: List[ScheduledEvent] = []
        self._sequence = sequence if sequence is not None else SequenceCounter()
        #: Time of the earliest live entry (``math.inf`` when empty).
        self.next_time: float = math.inf

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def claim_seq(self) -> int:
        """Claim the next global sequence number (also used to stamp
        observed :class:`~repro.engine.events.EventLog` records)."""
        return self._sequence.claim()

    def post(
        self, time: float, kind: "EventKind | str", payload: object = None
    ) -> ScheduledEvent:
        """Schedule ``kind`` at ``time`` and return the (cancellable) entry."""
        event = ScheduledEvent(
            time=float(time), seq=self.claim_seq(), kind=EventKind(kind), payload=payload
        )
        heapq.heappush(self._heap, (event.time, event.seq, event))
        if event.time < self.next_time:
            self.next_time = event.time
        return event

    def _skip_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        self.next_time = heap[0][0] if heap else math.inf

    def peek(self) -> Optional[ScheduledEvent]:
        """The earliest live entry without removing it (None when empty)."""
        self._skip_cancelled()
        return self._heap[0][2] if self._heap else None

    def pop_due(self, until: float) -> Iterator[ScheduledEvent]:
        """Yield every live event with ``time <= until`` in (time, seq) order.

        Events posted *while iterating* participate: a handler that posts an
        earlier-or-equal event sees it delivered in the same sweep (heap
        order is re-evaluated on every step).
        """
        heap = self._heap
        while True:
            self._skip_cancelled()
            if not heap or heap[0][0] > until:
                return
            event = heapq.heappop(heap)[2]
            self.next_time = heap[0][0] if heap else math.inf
            yield event


@dataclass(slots=True)
class Channel:
    """One serialized resource with an absolute busy-until clock."""

    name: str
    busy_until: float = 0.0

    def acquire(self, now: float, seconds: float) -> "tuple[float, float]":
        """Reserve the channel for ``seconds`` starting no earlier than
        ``now``; returns the ``(start, end)`` interval actually held."""
        start = now if now > self.busy_until else self.busy_until
        end = start + seconds
        self.busy_until = end
        return start, end

    def busy_at(self, time: float) -> bool:
        return time < self.busy_until

    def reset(self, now: float) -> None:
        """Discard in-flight work: the channel is idle as of ``now``.

        Clamping to ``now`` (not 0.0) keeps the invariant that
        ``busy_until`` never moves backwards past the present, so a stale
        absolute clock can never win a later ``max(now, busy_until)``.
        """
        self.busy_until = min(self.busy_until, float(now))


@dataclass(slots=True)
class ComputeChannel(Channel):
    """The solver's channel: tracks rollback-relevant compute incrementally.

    ``seconds_total`` accumulates every productive compute second;
    ``since_checkpoint`` is the rollback span — the compute done since the
    newest committed checkpoint, maintained in O(1) per iteration.

    The two update paths are deliberately distinct floating-point
    expressions, matching the engine's pinned arithmetic: a checkpoint
    completed *at the current instant* calls :meth:`mark`
    (``since_checkpoint = 0.0`` — subsequent spans accumulate from zero),
    while a commit anchored at an *earlier* total calls :meth:`rebase`
    (one subtraction against that anchor).
    """

    seconds_total: float = 0.0
    since_checkpoint: float = 0.0

    def advance(self, seconds: float) -> None:
        self.seconds_total += seconds
        self.since_checkpoint += seconds

    def mark(self) -> None:
        """A checkpoint completed now: the rollback span restarts at zero."""
        self.since_checkpoint = 0.0

    def rebase(self, anchor: float) -> None:
        """Anchor the rollback span at an earlier compute-seconds total."""
        self.since_checkpoint = self.seconds_total - anchor


@dataclass(slots=True)
class IOChannel(Channel):
    """The drain channel: serialized writes, reset on failure.

    The engine posts one :data:`EventKind.DRAIN_COMPLETE` per enqueued drain
    at its ``end`` time; the channel only owns the busy clock and the count
    of entries in flight (the drain payloads live on the scheduled events).
    """

    in_flight: int = 0

    def enqueue(self, now: float, seconds: float) -> "tuple[float, float]":
        start, end = self.acquire(now, seconds)
        self.in_flight += 1
        return start, end

    def complete_one(self) -> None:
        self.in_flight -= 1

    def reset(self, now: float) -> None:
        # Explicit base call: ``slots=True`` dataclasses are re-created by the
        # decorator, which breaks zero-argument ``super()``'s class cell.
        Channel.reset(self, now)
        self.in_flight = 0
