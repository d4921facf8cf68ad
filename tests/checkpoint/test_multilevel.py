"""Tests for the FTI-style multilevel checkpoint store."""

import numpy as np
import pytest

from repro.checkpoint.chunked import ChunkedStore
from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelCheckpointStore,
    MultilevelPolicy,
)
from repro.checkpoint.pipeline import CheckpointPipeline
from repro.checkpoint.store import (
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
)
from repro.core.schemes import CheckpointingScheme
from repro.solvers.base import CheckpointSpec


class TestMultilevelPolicy:
    def test_default_cycle_ends_with_pfs(self):
        policy = MultilevelPolicy()
        assert CheckpointLevel.PFS in policy.cycle

    def test_level_for_cycles(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL, CheckpointLevel.PFS])
        assert policy.level_for(0) is CheckpointLevel.LOCAL
        assert policy.level_for(1) is CheckpointLevel.PFS
        assert policy.level_for(2) is CheckpointLevel.LOCAL

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            MultilevelPolicy(cycle=[])

    def test_invalid_probability_rejected(self):
        survival = {level: 1.0 for level in CheckpointLevel}
        survival[CheckpointLevel.LOCAL] = 1.5
        with pytest.raises(ValueError):
            MultilevelPolicy(survival_probability=survival)

    def test_cheaper_levels_cost_less(self):
        policy = MultilevelPolicy()
        assert (
            policy.cost_multiplier[CheckpointLevel.LOCAL]
            < policy.cost_multiplier[CheckpointLevel.PFS]
        )


class TestMultilevelStore:
    def test_write_assigns_levels_from_cycle(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL, CheckpointLevel.PFS])
        store = MultilevelCheckpointStore(policy, seed=0)
        store.write(0, b"a")
        store.write(1, b"b")
        assert store.level_of(0) is CheckpointLevel.LOCAL
        assert store.level_of(1) is CheckpointLevel.PFS

    def test_read_delete_roundtrip(self):
        store = MultilevelCheckpointStore(seed=0)
        store.write(0, b"payload")
        assert store.read(0) == b"payload"
        store.delete(0)
        assert store.ids() == []

    def test_cost_multiplier_of(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL])
        store = MultilevelCheckpointStore(policy, seed=0)
        store.write(0, b"x")
        assert store.cost_multiplier_of(0) == policy.cost_multiplier[CheckpointLevel.LOCAL]

    def test_pfs_checkpoint_always_survives(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.PFS])
        store = MultilevelCheckpointStore(policy, seed=1)
        store.write(0, b"x")
        store.write(1, b"y")
        assert store.surviving_id() == 1

    def test_local_checkpoints_sometimes_lost(self):
        survival = {level: 1.0 for level in CheckpointLevel}
        survival[CheckpointLevel.LOCAL] = 0.0
        policy = MultilevelPolicy(
            cycle=[CheckpointLevel.PFS, CheckpointLevel.LOCAL],
            survival_probability=survival,
        )
        store = MultilevelCheckpointStore(policy, seed=2)
        store.write(0, b"pfs")
        store.write(1, b"local")
        # The newest (local) checkpoint never survives; recovery falls back to PFS.
        assert store.surviving_id() == 0

    def test_no_checkpoints_returns_none(self):
        store = MultilevelCheckpointStore(seed=0)
        assert store.surviving_id() is None


_CYCLE = [CheckpointLevel.LOCAL, CheckpointLevel.PARTNER, CheckpointLevel.PFS]


class TestCycle:
    """The policy cycle advances on new checkpoints only."""

    def test_overwrite_keeps_level_and_cycle_position(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        store.write(0, b"a")
        store.write(0, b"a v2")
        store.write(1, b"b")
        assert store.level_of(0) is CheckpointLevel.LOCAL
        assert store.level_of(1) is CheckpointLevel.PARTNER

    def test_pipeline_commits_follow_the_cycle(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        x = np.linspace(1.0, 2.0, 256)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(), spec=CheckpointSpec(), store=store
        )
        for iteration in range(4):
            pipeline.commit(pipeline.snapshot(x, iteration=iteration))
        levels = [store.level_of(i) for i in (0, 1, 2, 3)]
        assert levels == _CYCLE + [_CYCLE[0]]


@pytest.fixture(params=["memory", "file", "object", "chunked"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore()
    if request.param == "file":
        return FileCheckpointStore(tmp_path / "ckpts")
    if request.param == "object":
        return SimulatedObjectStore()
    return ChunkedStore(MemoryCheckpointStore(), chunk_size=4)


def _has_replica(backend, key):
    has_chunked = getattr(backend, "has_chunked_blob", None)
    return has_chunked(key) if has_chunked is not None else backend.has_blob(key)


class TestBackend:
    """Every level writes to the one backend the store was given."""

    def test_every_level_lands_in_the_backend(self, backend):
        store = MultilevelCheckpointStore(
            MultilevelPolicy(cycle=list(_CYCLE)), seed=0, backend=backend
        )
        payloads = [b"local payload", b"partner payload", b"pfs payload"]
        for checkpoint_id, payload in enumerate(payloads):
            store.write(checkpoint_id, payload)
        assert [store.level_of(i) for i in range(3)] == _CYCLE
        assert backend.ids() == store.ids() == [0, 1, 2]
        assert [backend.read(i) for i in range(3)] == payloads
        assert store.profile == backend.profile

    def test_partner_replica_follows_its_checkpoint(self, backend):
        store = MultilevelCheckpointStore(
            MultilevelPolicy(cycle=list(_CYCLE)), seed=0, backend=backend
        )
        for checkpoint_id in range(3):
            store.write(checkpoint_id, b"payload %d" % checkpoint_id)
        # Only the PARTNER-level checkpoint (id 1) has a buddy replica.
        assert [_has_replica(backend, f"replica/L2/{i}") for i in range(3)] == [
            False, True, False,
        ]
        store.delete(1)
        assert not _has_replica(backend, "replica/L2/1")
        assert backend.ids() == [0, 2]
