"""Tests for the FTI-style multilevel level bookkeeping."""

import numpy as np
import pytest

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelCheckpointStore,
    MultilevelPolicy,
)
from repro.checkpoint.pipeline import CheckpointPipeline
from repro.checkpoint.store import CheckpointStore
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
    def test_record_assigns_levels_from_cycle(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL, CheckpointLevel.PFS])
        store = MultilevelCheckpointStore(policy, seed=0)
        assert store.record(0) is CheckpointLevel.LOCAL
        assert store.record(1) is CheckpointLevel.PFS
        assert store.level_of(0) is CheckpointLevel.LOCAL
        assert store.level_of(1) is CheckpointLevel.PFS

    def test_delete_forgets_the_checkpoint(self):
        store = MultilevelCheckpointStore(seed=0)
        store.record(0)
        store.record(1)
        store.delete(0)
        store.delete(7)  # absent: no-op
        assert store.ids() == [1]

    def test_holds_no_payload(self):
        assert not isinstance(MultilevelCheckpointStore(), CheckpointStore)

    def test_cost_multiplier_of(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL])
        store = MultilevelCheckpointStore(policy, seed=0)
        store.record(0)
        assert store.cost_multiplier_of(0) == policy.cost_multiplier[CheckpointLevel.LOCAL]

    def test_pfs_checkpoint_always_survives(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.PFS])
        store = MultilevelCheckpointStore(policy, seed=1)
        store.record(0)
        store.record(1)
        assert store.surviving_id() == 1

    def test_local_checkpoints_sometimes_lost(self):
        survival = {level: 1.0 for level in CheckpointLevel}
        survival[CheckpointLevel.LOCAL] = 0.0
        policy = MultilevelPolicy(
            cycle=[CheckpointLevel.PFS, CheckpointLevel.LOCAL],
            survival_probability=survival,
        )
        store = MultilevelCheckpointStore(policy, seed=2)
        store.record(0)
        store.record(1)
        # The newest (local) checkpoint never survives; recovery falls back to PFS.
        assert store.surviving_id() == 0

    def test_survival_draws_newest_first_over_ascending_ids(self):
        """One draw per checkpoint, newest id first, whatever the record order."""
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL])
        store = MultilevelCheckpointStore(policy, seed=5)
        for checkpoint_id in (3, 0, 2):
            store.record(checkpoint_id)
        draws = np.random.default_rng(5).random(3)
        p = policy.survival_probability[CheckpointLevel.LOCAL]
        survivors = [i for i, u in zip((2, 0), draws[1:]) if u <= p]
        expected = 3 if draws[0] <= p else (survivors[0] if survivors else None)
        assert store.surviving_id() == expected

    def test_no_checkpoints_returns_none(self):
        store = MultilevelCheckpointStore(seed=0)
        assert store.surviving_id() is None


_CYCLE = [CheckpointLevel.LOCAL, CheckpointLevel.PARTNER, CheckpointLevel.PFS]


class TestCycle:
    """The policy cycle advances on new checkpoints only."""

    def test_overwrite_keeps_level_and_cycle_position(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        store.record(0)
        assert store.record(0) is CheckpointLevel.LOCAL
        store.record(1)
        assert store.level_of(0) is CheckpointLevel.LOCAL
        assert store.level_of(1) is CheckpointLevel.PARTNER

    def test_pipeline_commits_follow_the_cycle(self):
        store = MultilevelCheckpointStore(MultilevelPolicy(cycle=list(_CYCLE)), seed=0)
        x = np.linspace(1.0, 2.0, 256)
        pipeline = CheckpointPipeline(
            CheckpointingScheme.traditional(), spec=CheckpointSpec()
        )
        for iteration in range(4):
            store.record(pipeline.snapshot(x, iteration=iteration).checkpoint_id)
        levels = [store.level_of(i) for i in (0, 1, 2, 3)]
        assert levels == _CYCLE + [_CYCLE[0]]
