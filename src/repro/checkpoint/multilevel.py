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

The store wraps one real :class:`~repro.checkpoint.store.CheckpointStore`
backend (in-memory by default) that every level writes to, and a level's
*price* is the storage profile's seconds times the level's cost multiplier
(:attr:`MultilevelPolicy.cost_multiplier`).
Partner-level checkpoints additionally write a buddy replica
through the backend's blob namespace — when the backend dedups
(:class:`~repro.checkpoint.chunked.ChunkedStore`), the replica shares chunks
with the primary copy and adds zero unique bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checkpoint.store import (
    CheckpointStore,
    MemoryCheckpointStore,
    StoreProfile,
    WriteReceipt,
)
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


class MultilevelCheckpointStore(CheckpointStore):
    """Store that assigns each checkpoint a level and models level survival.

    ``write`` assigns the level from the policy cycle and writes the payload
    to the backend; ``surviving_id`` draws which of the stored checkpoints
    survive a failure (PFS always survives) and returns the newest survivor
    — that is the checkpoint a recovery would actually restart from.

    The policy cycle is keyed on *new* checkpoints only: overwriting an
    existing checkpoint keeps its level and does not advance the cycle.

    ``backend`` is the store every level writes to (an in-memory store when
    omitted).  Partner-level writes add a buddy replica under the blob key
    ``replica/L2/<id>``, via the dedup pool when the backend offers one.
    """

    def __init__(
        self,
        policy: Optional[MultilevelPolicy] = None,
        *,
        seed=None,
        backend: Optional[CheckpointStore] = None,
    ) -> None:
        self.policy = policy or MultilevelPolicy()
        self._backend = backend if backend is not None else MemoryCheckpointStore()
        self._levels: Dict[int, CheckpointLevel] = {}
        self._writes = 0
        self._rng = default_rng(seed)

    @staticmethod
    def _replica_key(checkpoint_id: int) -> str:
        return f"replica/L{int(CheckpointLevel.PARTNER)}/{int(checkpoint_id)}"

    def _write_replica(self, checkpoint_id: int, payload: bytes) -> None:
        key = self._replica_key(checkpoint_id)
        put_chunked = getattr(self._backend, "put_chunked_blob", None)
        try:
            if put_chunked is not None:
                put_chunked(key, payload)
            else:
                self._backend.put_blob(key, payload)
        except NotImplementedError:
            pass  # backend has no blob namespace; replica stays modeled-only

    def _delete_replica(self, checkpoint_id: int) -> None:
        key = self._replica_key(checkpoint_id)
        delete_chunked = getattr(self._backend, "delete_chunked_blob", None)
        try:
            if delete_chunked is not None:
                delete_chunked(key)
            else:
                self._backend.delete_blob(key)
        except NotImplementedError:
            pass

    # -- CheckpointStore interface -----------------------------------------
    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        checkpoint_id = int(checkpoint_id)
        level = self._levels.get(checkpoint_id)
        if level is None:
            level = self.policy.level_for(self._writes)
            self._writes += 1
        self._levels[checkpoint_id] = level
        receipt = self._backend.write(checkpoint_id, payload)
        if level == CheckpointLevel.PARTNER:
            self._write_replica(checkpoint_id, payload)
        return receipt

    def read(self, checkpoint_id: int) -> bytes:
        return self._backend.read(int(checkpoint_id))

    def ids(self) -> List[int]:
        return self._backend.ids()

    def delete(self, checkpoint_id: int) -> None:
        checkpoint_id = int(checkpoint_id)
        level = self._levels.pop(checkpoint_id, None)
        self._backend.delete(checkpoint_id)
        if level == CheckpointLevel.PARTNER:
            self._delete_replica(checkpoint_id)

    # -- profile & durability ---------------------------------------------
    @property
    def profile(self) -> StoreProfile:
        return self._backend.profile

    # -- multilevel-specific ---------------------------------------------------
    def next_level(self, offset: int = 0) -> CheckpointLevel:
        """Level the *next* new checkpoint will be written to.

        Lets a caller price a write before performing it (the fault-tolerance
        engine charges the level's cost even for an attempt that a failure
        later discards); the cycle itself only advances on an actual
        :meth:`write`.  ``offset`` peeks further ahead: an asynchronous engine
        with ``offset`` checkpoints still draining prices the next write at
        the level it will hold once those pending writes commit.
        """
        return self.policy.level_for(self._writes + int(offset))

    def level_of(self, checkpoint_id: int) -> CheckpointLevel:
        """The level the given checkpoint was written to."""
        return self._levels[int(checkpoint_id)]

    def cost_multiplier_of(self, checkpoint_id: int) -> float:
        """Relative write cost of the given checkpoint (PFS = 1)."""
        return self.policy.cost_multiplier[self.level_of(checkpoint_id)]

    def surviving_id(self) -> Optional[int]:
        """Newest checkpoint that survives a simulated failure, if any."""
        for checkpoint_id in reversed(self.ids()):
            level = self._levels.get(checkpoint_id, CheckpointLevel.PFS)
            if self._rng.random() <= self.policy.survival_probability[level]:
                return checkpoint_id
        return None
