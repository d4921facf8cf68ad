"""FTI-style multilevel checkpointing (extension beyond the paper's L4-only use).

FTI (Bautista-Gomez et al., SC'11) offers four checkpoint levels with
increasing resilience and cost:

* **L1** — local storage device (fast, survives soft process failures only),
* **L2** — partner copy on a buddy node,
* **L3** — Reed-Solomon encoded across nodes,
* **L4** — the parallel file system (survives whole-system failures).

The paper writes all checkpoints at L4 through MPI-IO; this module adds the
multilevel policy so the ablation benchmarks can quantify how much of the
lossy-checkpointing gain survives when cheaper levels absorb most failures.

The store is level bookkeeping over checkpoint ids: it holds no payload.  A
level's *price* is the storage profile's seconds times the level's cost
multiplier (:attr:`MultilevelPolicy.cost_multiplier`), charged by the
fault-tolerance engine from the payload's measured size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.rng import default_rng

__all__ = ["CheckpointLevel", "MultilevelPolicy", "MultilevelCheckpointStore"]


class CheckpointLevel(enum.IntEnum):
    """FTI's four checkpoint levels."""

    LOCAL = 1
    PARTNER = 2
    REED_SOLOMON = 3
    PFS = 4


#: Relative write-cost multipliers (PFS = 1.0) — FTI's published measurements
#: put L1 at a few percent of L4 and L2/L3 in between.
_DEFAULT_COST = {
    CheckpointLevel.LOCAL: 0.05,
    CheckpointLevel.PARTNER: 0.15,
    CheckpointLevel.REED_SOLOMON: 0.35,
    CheckpointLevel.PFS: 1.0,
}

#: Probability that a checkpoint at this level survives a (random) failure.
_DEFAULT_SURVIVAL = {
    CheckpointLevel.LOCAL: 0.60,
    CheckpointLevel.PARTNER: 0.85,
    CheckpointLevel.REED_SOLOMON: 0.97,
    CheckpointLevel.PFS: 1.0,
}


@dataclass
class MultilevelPolicy:
    """Which level each successive checkpoint goes to, and level properties.

    ``cycle`` lists the level assigned to checkpoint number ``i mod
    len(cycle)``; FTI's default-like cycle writes mostly cheap local
    checkpoints with a periodic PFS checkpoint.
    """

    cycle: List[CheckpointLevel] = field(
        default_factory=lambda: [
            CheckpointLevel.LOCAL,
            CheckpointLevel.LOCAL,
            CheckpointLevel.PARTNER,
            CheckpointLevel.LOCAL,
            CheckpointLevel.LOCAL,
            CheckpointLevel.PFS,
        ]
    )
    cost_multiplier: Dict[CheckpointLevel, float] = field(
        default_factory=lambda: dict(_DEFAULT_COST)
    )
    survival_probability: Dict[CheckpointLevel, float] = field(
        default_factory=lambda: dict(_DEFAULT_SURVIVAL)
    )

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must contain at least one level")
        for level in CheckpointLevel:
            if not (0.0 < self.cost_multiplier[level] <= 1.0 + 1e-9):
                raise ValueError(f"cost multiplier for {level} must be in (0, 1]")
            if not (0.0 <= self.survival_probability[level] <= 1.0):
                raise ValueError(f"survival probability for {level} must be in [0, 1]")

    def level_for(self, checkpoint_index: int) -> CheckpointLevel:
        """Level assigned to the ``checkpoint_index``-th checkpoint."""
        return self.cycle[int(checkpoint_index) % len(self.cycle)]


class MultilevelCheckpointStore:
    """Assigns each checkpoint a level and models level survival.

    :meth:`record` assigns a committed checkpoint its level from the policy
    cycle; :meth:`surviving_id` draws which of the recorded checkpoints
    survive a failure (PFS always survives) and returns the newest survivor
    — that is the checkpoint a recovery would actually restart from.

    The policy cycle is keyed on *new* checkpoints only: recording an
    existing checkpoint again keeps its level and does not advance the cycle.
    """

    def __init__(self, policy: Optional[MultilevelPolicy] = None, *, seed=None) -> None:
        self.policy = policy or MultilevelPolicy()
        self._levels: Dict[int, CheckpointLevel] = {}
        self._recorded = 0
        self._rng = default_rng(seed)

    def record(self, checkpoint_id: int) -> CheckpointLevel:
        """Record a committed checkpoint; return the level it was written to."""
        checkpoint_id = int(checkpoint_id)
        level = self._levels.get(checkpoint_id)
        if level is None:
            level = self.policy.level_for(self._recorded)
            self._recorded += 1
            self._levels[checkpoint_id] = level
        return level

    def ids(self) -> List[int]:
        """Recorded checkpoint ids in ascending order."""
        return sorted(self._levels)

    def delete(self, checkpoint_id: int) -> None:
        """Forget a checkpoint (no-op if absent)."""
        self._levels.pop(int(checkpoint_id), None)

    def next_level(self, offset: int = 0) -> CheckpointLevel:
        """Level the *next* new checkpoint will be written to.

        Lets a caller price a write before performing it (the fault-tolerance
        engine charges the level's cost even for an attempt that a failure
        later discards); the cycle itself only advances on an actual
        :meth:`record`.  ``offset`` peeks further ahead: an asynchronous engine
        with ``offset`` checkpoints still draining prices the next write at
        the level it will hold once those pending writes commit.
        """
        return self.policy.level_for(self._recorded + int(offset))

    def level_of(self, checkpoint_id: int) -> CheckpointLevel:
        """The level the given checkpoint was written to."""
        return self._levels[int(checkpoint_id)]

    def cost_multiplier_of(self, checkpoint_id: int) -> float:
        """Relative write cost of the given checkpoint (PFS = 1)."""
        return self.policy.cost_multiplier[self.level_of(checkpoint_id)]

    def surviving_id(self) -> Optional[int]:
        """Newest checkpoint that survives a simulated failure, if any."""
        for checkpoint_id in reversed(self.ids()):
            level = self._levels[checkpoint_id]
            if self._rng.random() <= self.policy.survival_probability[level]:
                return checkpoint_id
        return None
