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

The policy is the whole model: checkpoint ``i`` goes to
:meth:`MultilevelPolicy.level_for` ``(i)``, and :func:`surviving_id` draws
which checkpoints of a ledger survive a failure.  A level's *price* is the
storage profile's seconds times the level's cost multiplier
(:attr:`MultilevelPolicy.cost_multiplier`), charged by the fault-tolerance
engine from the payload's measured size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.utils.rng import SeedLike, default_rng, derive_seed

__all__ = ["CheckpointLevel", "MultilevelPolicy", "survival_rng", "surviving_id"]


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


def survival_rng(seed: SeedLike):
    """The generator of one run's survival draws, derived from the run seed.

    The run seed also drives the failure injector, so the survival stream is
    derived without drawing from it: an int maps to
    ``derive_seed(seed, "multilevel")``, a ``Generator`` spawns an
    independent child (which leaves the parent's own stream — the failure
    arrivals — where it was), and a ``SeedSequence`` draws one child seed
    from a fresh generator of its own.  Every ``SeedLike`` flavour yields a
    distinct, reproducible stream; ``None`` means fresh entropy, like the
    injector.
    """
    import numpy as np

    if seed is None:
        return default_rng(None)
    if isinstance(seed, (int, np.integer)):
        return default_rng(derive_seed(int(seed), "multilevel"))
    if isinstance(seed, np.random.Generator):
        return seed.spawn(1)[0]
    return default_rng(
        derive_seed(int(default_rng(seed).integers(0, 2**63 - 1)), "multilevel")
    )


def surviving_id(records: Mapping[int, object], policy: MultilevelPolicy, rng) -> Optional[int]:
    """Newest checkpoint in ``records`` that survives a simulated failure.

    ``records`` maps checkpoint ids to anything with an FTI ``level``
    attribute (the engine's checkpoint ledger).  Ids are visited newest
    (largest) first, one ``rng.random()`` each, until one survives with its
    level's probability; sorting the ids makes the draw consume the same
    stream whatever order the ledger was filled in.  ``None`` when no
    checkpoint survives (or there is none).
    """
    survival = policy.survival_probability
    for checkpoint_id in sorted(records, reverse=True):
        if rng.random() <= survival[CheckpointLevel(records[checkpoint_id].level)]:
            return checkpoint_id
    return None
