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

The store composes real :class:`~repro.checkpoint.store.CheckpointStore`
backends: every level routes to a backend (one shared in-memory backend by
default), and a level's *price* is the storage profile's seconds times the
level's cost multiplier (:attr:`MultilevelPolicy.cost_multiplier`).
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
    """Store that routes payloads per level and models level survival.

    ``write`` assigns the level from the policy cycle and routes the payload
    to that level's backend; ``surviving_id`` draws which of the stored
    checkpoints survive a failure (PFS always survives) and returns the
    newest survivor — that is the checkpoint a recovery would actually
    restart from.

    The policy cycle is keyed on *new dynamic* checkpoints only: the static
    checkpoint (negative ids) is pinned to PFS — it must be recoverable after
    any failure and may be rewritten at any time — and overwriting an
    existing checkpoint keeps its level.  Neither advances the cycle, so
    ``snapshot_static()`` calls cannot shift the levels of later dynamic
    checkpoints.

    ``backend`` is the shared backend every level routes to by default (an
    in-memory store when omitted); ``level_backends``
    overrides the backend for individual levels.  Partner-level writes add a
    buddy replica under the blob key ``replica/L2/<id>`` on the partner
    backend, via the dedup pool when the backend offers one.
    """

    def __init__(
        self,
        policy: Optional[MultilevelPolicy] = None,
        *,
        seed=None,
        backend: Optional[CheckpointStore] = None,
        level_backends: Optional[Dict[CheckpointLevel, CheckpointStore]] = None,
    ) -> None:
        self.policy = policy or MultilevelPolicy()
        self._backend = backend if backend is not None else MemoryCheckpointStore()
        self._level_backends = dict(level_backends or {})
        self._levels: Dict[int, CheckpointLevel] = {}
        self._dynamic_writes = 0
        self._rng = default_rng(seed)

    # -- backend composition -----------------------------------------------
    def backend_for(self, level: CheckpointLevel) -> CheckpointStore:
        """The backend payloads at ``level`` are routed to."""
        return self._level_backends.get(CheckpointLevel(level), self._backend)

    def _backends(self) -> List[CheckpointStore]:
        seen: List[CheckpointStore] = [self._backend]
        for store in self._level_backends.values():
            if all(store is not other for other in seen):
                seen.append(store)
        return seen

    @staticmethod
    def _replica_key(checkpoint_id: int) -> str:
        return f"replica/L{int(CheckpointLevel.PARTNER)}/{int(checkpoint_id)}"

    def _write_replica(self, store: CheckpointStore, checkpoint_id: int, payload: bytes) -> None:
        key = self._replica_key(checkpoint_id)
        put_chunked = getattr(store, "put_chunked_blob", None)
        try:
            if put_chunked is not None:
                put_chunked(key, payload)
            else:
                store.put_blob(key, payload)
        except NotImplementedError:
            pass  # backend has no blob namespace; replica stays modeled-only

    def _delete_replica(self, store: CheckpointStore, checkpoint_id: int) -> None:
        key = self._replica_key(checkpoint_id)
        delete_chunked = getattr(store, "delete_chunked_blob", None)
        try:
            if delete_chunked is not None:
                delete_chunked(key)
            else:
                store.delete_blob(key)
        except NotImplementedError:
            pass

    # -- CheckpointStore interface -----------------------------------------
    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        checkpoint_id = int(checkpoint_id)
        if checkpoint_id < 0:
            level = CheckpointLevel.PFS
        elif checkpoint_id in self._levels:
            level = self._levels[checkpoint_id]
        else:
            level = self.policy.level_for(self._dynamic_writes)
            self._dynamic_writes += 1
        self._levels[checkpoint_id] = level
        store = self.backend_for(level)
        receipt = store.write(checkpoint_id, payload)
        if level == CheckpointLevel.PARTNER:
            self._write_replica(store, checkpoint_id, payload)
        return receipt

    def read(self, checkpoint_id: int) -> bytes:
        checkpoint_id = int(checkpoint_id)
        level = self._levels.get(checkpoint_id)
        if level is not None:
            return self.backend_for(level).read(checkpoint_id)
        for store in self._backends():
            try:
                return store.read(checkpoint_id)
            except KeyError:
                continue
        raise KeyError(f"no checkpoint with id {checkpoint_id}")

    def ids(self) -> List[int]:
        found = set()
        for store in self._backends():
            found.update(store.ids())
        return sorted(found)

    def delete(self, checkpoint_id: int) -> None:
        checkpoint_id = int(checkpoint_id)
        level = self._levels.pop(checkpoint_id, None)
        if level is not None:
            store = self.backend_for(level)
            store.delete(checkpoint_id)
            if level == CheckpointLevel.PARTNER:
                self._delete_replica(store, checkpoint_id)
            return
        for store in self._backends():
            store.delete(checkpoint_id)

    # -- profile & durability ---------------------------------------------
    @property
    def profile(self) -> StoreProfile:
        # The store as a whole is as durable (and as expensive) as its
        # PFS-level backend: that is where static and cycle-top checkpoints
        # land, and what a whole-system recovery reads from.
        return self.backend_for(CheckpointLevel.PFS).profile

    # -- multilevel-specific ---------------------------------------------------
    def next_level(self, offset: int = 0) -> CheckpointLevel:
        """Level the *next* new dynamic checkpoint will be written to.

        Lets a caller price a write before performing it (the fault-tolerance
        engine charges the level's cost even for an attempt that a failure
        later discards); the cycle itself only advances on an actual
        :meth:`write`.  ``offset`` peeks further ahead: an asynchronous engine
        with ``offset`` checkpoints still draining prices the next write at
        the level it will hold once those pending writes commit.
        """
        return self.policy.level_for(self._dynamic_writes + int(offset))

    def level_of(self, checkpoint_id: int) -> CheckpointLevel:
        """The level the given checkpoint was written to."""
        return self._levels[int(checkpoint_id)]

    def cost_multiplier_of(self, checkpoint_id: int) -> float:
        """Relative write cost of the given checkpoint (PFS = 1)."""
        return self.policy.cost_multiplier[self.level_of(checkpoint_id)]

    def surviving_id(self, *, exclude_static: bool = True) -> Optional[int]:
        """Newest checkpoint that survives a simulated failure, if any."""
        candidates = [i for i in self.ids() if not (exclude_static and i < 0)]
        for checkpoint_id in reversed(candidates):
            level = self._levels.get(checkpoint_id, CheckpointLevel.PFS)
            if self._rng.random() <= self.policy.survival_probability[level]:
                return checkpoint_id
        return None
