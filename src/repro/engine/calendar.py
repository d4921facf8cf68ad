"""Channel clocks of the fault-tolerance engine's virtual timeline.

The engine's timeline is plain state, not an event heap (see
:mod:`repro.engine.core`, "Timeline state"): the compute side keeps the
next failure time and the next checkpoint due time, and the I/O side keeps
a first-in-first-out queue of in-flight drains.  This module holds the
clocks both sides run on.

The engine keeps two channels:

* the **compute channel** (:class:`ComputeChannel`) — the rollback
  accounting of the solver's clock (iterations, captures, recoveries and
  rollbacks advance the engine's :class:`~repro.utils.timing.VirtualClock`);
* the **I/O channel** (:class:`Channel`) — a ``busy_until`` clock over
  checkpoint drains, serialized one after another, so each drain ends no earlier than the one
  before it and the drain queue completes in the order it was filled.
  :meth:`Channel.reset` is the only way the clock goes backwards (a failure
  discards in-flight work), so a stale absolute ``busy_until`` can never be
  compared against a later ``max(now, busy_until)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Channel", "ComputeChannel"]


@dataclass(slots=True)
class Channel:
    """One serialized resource with an absolute busy-until clock."""

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
class ComputeChannel:
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
