"""The virtual clock of the simulated cluster timeline.

:class:`VirtualClock` accumulates *modeled* seconds (used by the
fault-tolerance runner, where one iteration of a 2,048-process run "costs"
the paper-scale iteration time, not the time this laptop-scale reproduction
happens to take).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class VirtualClock:
    """Accumulates modeled time on the simulated cluster timeline.

    The clock keeps a per-category breakdown (``compute``, ``checkpoint``,
    ``recovery``, ``rollback``, ...) so the fault-tolerance overhead
    (total minus productive compute) can be reported exactly as the paper
    defines it.
    """

    now: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    events: List[Tuple[float, str]] = field(default_factory=list)
    record_events: bool = False

    def advance(self, seconds: float, category: str = "compute") -> float:
        """Advance the clock by ``seconds`` attributed to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self.now += seconds
        self.breakdown[category] = self.breakdown.get(category, 0.0) + seconds
        if self.record_events:
            self.events.append((self.now, category))
        return self.now

    def time_in(self, category: str) -> float:
        """Total modeled seconds spent in ``category`` so far."""
        return self.breakdown.get(category, 0.0)

