"""Tests for the FTI-style multilevel checkpoint store."""

import numpy as np
import pytest

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelCheckpointStore,
    MultilevelPolicy,
)
from repro.checkpoint.pipeline import CheckpointPipeline
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


class TestDynamicOnlyCycle:
    """The policy cycle must be keyed on new dynamic checkpoints only.

    Regression: ``write`` used to advance the cycle for *every* write —
    including the static checkpoint (id ``-1``) and overwrites — so a
    ``snapshot_static()`` call silently shifted the level of every later
    dynamic checkpoint.
    """

    def test_static_writes_do_not_shift_cycle(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        store.write(-1, b"static")
        store.write(0, b"a")
        store.write(-1, b"static again")
        store.write(1, b"b")
        store.write(2, b"c")
        assert [store.level_of(i) for i in (0, 1, 2)] == _CYCLE

    def test_static_checkpoint_pinned_to_pfs(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        store.write(-1, b"static")
        assert store.level_of(-1) is CheckpointLevel.PFS

    def test_overwrite_keeps_level_and_cycle_position(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        store.write(0, b"a")
        store.write(0, b"a v2")
        store.write(1, b"b")
        assert store.level_of(0) is CheckpointLevel.LOCAL
        assert store.level_of(1) is CheckpointLevel.PARTNER

    def test_interleaved_snapshots_keep_level_sequence(self):
        """Pin via the pipeline: snapshot_static() between snapshots is inert."""
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        x = np.linspace(1.0, 2.0, 256)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(),
            spec=CheckpointSpec(),
            store=store,
            static={"A": np.eye(4)},
        )
        pipeline.snapshot_static()
        pipeline.commit(pipeline.snapshot(x, iteration=0))
        pipeline.snapshot_static()  # re-write static mid-run: must not drift levels
        pipeline.commit(pipeline.snapshot(x, iteration=1))
        pipeline.commit(pipeline.snapshot(x, iteration=2))
        pipeline.snapshot_static()
        pipeline.commit(pipeline.snapshot(x, iteration=3))
        levels = [store.level_of(i) for i in (0, 1, 2, 3)]
        assert levels == _CYCLE + [_CYCLE[0]]
        assert store.level_of(-1) is CheckpointLevel.PFS
