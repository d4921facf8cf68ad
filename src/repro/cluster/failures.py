"""Fail-stop failure injection with pluggable arrival models.

The paper injects failures whose inter-arrival times follow an exponential
distribution ("because this is a common behavior of a system for most of its
lifetime"), with a mean time to interruption of one hour in the main
experiment.  :class:`FailureInjector` reproduces that process on the virtual
timeline: failures are pre-sampled lazily and can land anywhere — during
compute, during a checkpoint write, or during a recovery.

Beyond the paper's homogeneous Poisson process, the Section 5.4 MTTI sweep is
extended with two alternative :class:`FailureModel`\\ s:

* :class:`WeibullFailureModel` — Weibull inter-arrivals with shape < 1
  ("infant mortality": after each failure the hazard is initially high and
  decays, producing clustered failures), the standard non-exponential model
  in HPC failure studies;
* :class:`BurstyFailureModel` — a two-state mixture where a fraction of gaps
  are drawn from a much shorter "burst" scale (correlated failures, e.g. a
  flaky switch taking several jobs down in quick succession) while keeping
  the configured overall MTTI.

:class:`ScriptedFailureModel` places failures at exact virtual times — the
deterministic tool the engine's regression tests (and reproducible scenario
debugging) are built on.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.utils.rng import SeedLike, default_rng
from repro.utils.validation import check_positive

__all__ = [
    "FailureEvent",
    "FailureModel",
    "PoissonFailureModel",
    "WeibullFailureModel",
    "BurstyFailureModel",
    "ScriptedFailureModel",
    "make_failure_model",
    "FailureInjector",
]


@dataclass(frozen=True)
class FailureEvent:
    """One injected fail-stop failure."""

    index: int
    time: float
    phase: str


class FailureModel(abc.ABC):
    """Inter-arrival-time model of the fail-stop failure process.

    A model is a pure sampler: :meth:`next_gap` draws the time from one
    failure (or from t=0) to the next, using the injector's generator.  All
    state that varies per run (the RNG, the arrival count) lives in the
    :class:`FailureInjector`, so one model instance can be shared.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def next_gap(self, rng, *, failure_index: int, last_time: float) -> float:
        """Sample the gap to the next failure.

        Parameters
        ----------
        rng:
            The injector's generator (all entropy flows through it).
        failure_index:
            How many failures have struck so far (0 for the first arrival).
        last_time:
            Virtual time of the previous failure (0.0 before the first).

        Returns ``inf`` to signal that no further failures arrive.
        """

    @property
    def mean_interarrival(self) -> Optional[float]:
        """Mean gap in virtual seconds (``None`` when undefined/scripted)."""
        return None


class PoissonFailureModel(FailureModel):
    """Exponential inter-arrivals — the paper's homogeneous Poisson process."""

    name = "poisson"

    def __init__(self, mtti: float) -> None:
        self.mtti = check_positive(float(mtti), "mtti")

    def next_gap(self, rng, *, failure_index: int, last_time: float) -> float:
        return float(rng.exponential(self.mtti))

    @property
    def mean_interarrival(self) -> Optional[float]:
        return self.mtti


class WeibullFailureModel(FailureModel):
    """Weibull inter-arrivals with shape < 1 (infant-mortality clustering).

    The scale is chosen so the mean gap equals ``mtti`` — the model changes
    the *variance structure* of the failure process (many short gaps balanced
    by occasional long quiet stretches), not the failure budget, which keeps
    MTTI-sweep comparisons against the Poisson baseline apples-to-apples.
    """

    name = "weibull"

    def __init__(self, mtti: float, *, shape: float = 0.7) -> None:
        self.mtti = check_positive(float(mtti), "mtti")
        self.shape = check_positive(float(shape), "shape")
        self.scale = self.mtti / math.gamma(1.0 + 1.0 / self.shape)

    def next_gap(self, rng, *, failure_index: int, last_time: float) -> float:
        return float(self.scale * rng.weibull(self.shape))

    @property
    def mean_interarrival(self) -> Optional[float]:
        return self.mtti


class BurstyFailureModel(FailureModel):
    """Correlated arrivals: a mixture of burst-scale and quiet-scale gaps.

    With probability ``burst_prob`` a gap is exponential at
    ``burst_fraction * mtti`` (a follow-on failure shortly after the previous
    one); otherwise it is exponential at the quiet scale chosen so the
    overall mean gap stays ``mtti``.
    """

    name = "bursty"

    def __init__(
        self, mtti: float, *, burst_prob: float = 0.25, burst_fraction: float = 0.05
    ) -> None:
        self.mtti = check_positive(float(mtti), "mtti")
        if not (0.0 < float(burst_prob) < 1.0):
            raise ValueError(f"burst_prob must be in (0, 1), got {burst_prob}")
        if not (0.0 < float(burst_fraction) < 1.0):
            raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
        self.burst_prob = float(burst_prob)
        self.burst_fraction = float(burst_fraction)
        self.burst_scale = self.burst_fraction * self.mtti
        # Solve p*burst + (1-p)*quiet = mtti for the quiet scale.
        self.quiet_scale = (
            self.mtti - self.burst_prob * self.burst_scale
        ) / (1.0 - self.burst_prob)

    def next_gap(self, rng, *, failure_index: int, last_time: float) -> float:
        scale = self.burst_scale if rng.random() < self.burst_prob else self.quiet_scale
        return float(rng.exponential(scale))

    @property
    def mean_interarrival(self) -> Optional[float]:
        return self.mtti


class ScriptedFailureModel(FailureModel):
    """Failures at exact, pre-scripted virtual times (deterministic).

    ``times`` are absolute times on the virtual timeline, strictly
    increasing; after the list is exhausted no further failures arrive.
    """

    name = "scripted"

    def __init__(self, times: Sequence[float]) -> None:
        self.times = [float(t) for t in times]
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("scripted failure times must be strictly increasing")
        if self.times and self.times[0] <= 0.0:
            raise ValueError("scripted failure times must be positive")

    def next_gap(self, rng, *, failure_index: int, last_time: float) -> float:
        if failure_index >= len(self.times):
            return float("inf")
        return self.times[failure_index] - float(last_time)


_MODEL_FACTORIES = {
    "poisson": PoissonFailureModel,
    "weibull": WeibullFailureModel,
    "bursty": BurstyFailureModel,
}


def make_failure_model(name: str, mtti: float, **params) -> FailureModel:
    """Instantiate a named failure model.

    ``poisson``/``weibull``/``bursty`` take the MTTI plus model-specific
    keyword parameters; ``scripted`` ignores the MTTI and takes explicit
    ``times``.
    """
    if name == "scripted":
        return ScriptedFailureModel(params.pop("times", ()), **params)
    try:
        factory = _MODEL_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown failure model {name!r}; known: "
            f"{sorted([*_MODEL_FACTORIES, 'scripted'])}"
        ) from None
    return factory(mtti, **params)


class FailureInjector:
    """Failure generator on the virtual timeline.

    Parameters
    ----------
    mtti:
        Mean time to interruption in (virtual) seconds; ``None`` or ``inf``
        disables failures entirely (failure-free baseline runs).  When a
        ``model`` is given, the model's own mean gap is recorded instead.
    seed:
        RNG seed / generator for reproducibility.
    model:
        Inter-arrival model; defaults to the paper's Poisson process at the
        given MTTI.
    """

    def __init__(
        self,
        mtti: Optional[float] = 3600.0,
        *,
        seed: SeedLike = None,
        model: Optional[FailureModel] = None,
    ) -> None:
        if model is None and (mtti is None or mtti == float("inf")):
            self.mtti: Optional[float] = None
            self.model: Optional[FailureModel] = None
        elif model is None:
            self.mtti = check_positive(mtti, "mtti")
            self.model = PoissonFailureModel(self.mtti)
        else:
            self.model = model
            self.mtti = model.mean_interarrival
        self._rng = default_rng(seed)
        self._next_time: Optional[float] = None
        self.events: List[FailureEvent] = []
        #: Latent failures (arrival already billed past) strike at the start
        #: of the window that finds them instead of at the stale arrival
        #: time.  The engine enables this on the two-channel (async)
        #: timeline; the blocking timeline keeps the stale arrival untouched
        #: (byte-pinned by the paper-regime golden reports).
        self.latent_clamp: bool = False
        #: The calendar entry carrying the pending arrival (set by
        #: :meth:`reschedule`; cancelled and re-posted when the arrival
        #: re-arms).
        self._scheduled = None
        if self.model is not None:
            self._next_time = float(
                self.model.next_gap(self._rng, failure_index=0, last_time=0.0)
            )

    def consume(self, time: float, phase: str = "compute") -> FailureEvent:
        """Record the pending failure as having struck at ``time`` and re-arm."""
        if self.model is None:
            raise RuntimeError("failure injection is disabled (mtti=None)")
        event = FailureEvent(index=len(self.events), time=float(time), phase=phase)
        self.events.append(event)
        self._next_time = float(time) + float(
            self.model.next_gap(
                self._rng, failure_index=len(self.events), last_time=float(time)
            )
        )
        return event

    # -- calendar interface -------------------------------------------------
    def peek(self) -> float:
        """Arrival time of the pending failure (``inf`` when disabled).

        Unlike :meth:`consume`, peeking never touches the RNG stream — the
        arrival is drawn when the previous one is consumed, so posting it to
        a calendar once is equivalent to re-checking it per phase.
        """
        return float("inf") if self._next_time is None else self._next_time

    def strike_time(self, window_start: float) -> float:
        """Clock time at which the pending arrival actually strikes.

        A *latent* arrival — one that re-armed inside a phase whose full
        cost was already billed to the clock — lies in the past.  With
        :attr:`latent_clamp` it strikes at the start of the window that
        finds it, so the re-armed process keeps pace with the billed clock;
        without it the stale arrival time is kept as-is.
        """
        time = self.peek()
        if self.latent_clamp and window_start > time:
            return float(window_start)
        return time

    def reschedule(self, calendar) -> None:
        """Post the pending arrival to ``calendar`` as a failure-strike event.

        Cancels the previously posted entry (if any), so the calendar holds
        at most one live strike per injector.  Call after every
        :meth:`consume` — and once up front — to keep the calendar current.
        No-op when failure injection is disabled.
        """
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if self._next_time is not None:
            self._scheduled = calendar.post(
                self._next_time, "failure-strike", payload=self
            )

    @property
    def count(self) -> int:
        """Number of failures injected so far."""
        return len(self.events)
