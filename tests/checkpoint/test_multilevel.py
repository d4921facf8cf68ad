"""Tests for the FTI-style multilevel policy and survival draw."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
    surviving_id,
)


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


def _ledger(levels):
    """A checkpoint ledger: id -> a record carrying only its FTI level."""
    return {
        checkpoint_id: SimpleNamespace(level=int(level))
        for checkpoint_id, level in levels.items()
    }


class TestSurvivingId:
    def test_pfs_checkpoint_always_survives(self):
        policy = MultilevelPolicy(cycle=[CheckpointLevel.PFS])
        ledger = _ledger({0: CheckpointLevel.PFS, 1: CheckpointLevel.PFS})
        assert surviving_id(ledger, policy, np.random.default_rng(1)) == 1

    def test_local_checkpoints_sometimes_lost(self):
        survival = {level: 1.0 for level in CheckpointLevel}
        survival[CheckpointLevel.LOCAL] = 0.0
        policy = MultilevelPolicy(
            cycle=[CheckpointLevel.PFS, CheckpointLevel.LOCAL],
            survival_probability=survival,
        )
        ledger = _ledger({0: CheckpointLevel.PFS, 1: CheckpointLevel.LOCAL})
        # The newest (local) checkpoint never survives; recovery falls back to PFS.
        assert surviving_id(ledger, policy, np.random.default_rng(2)) == 0

    def test_survival_draws_newest_first_over_ascending_ids(self):
        """One draw per checkpoint, newest id first, whatever the ledger order."""
        policy = MultilevelPolicy(cycle=[CheckpointLevel.LOCAL])
        ledger = _ledger({i: CheckpointLevel.LOCAL for i in (3, 0, 2)})
        draws = np.random.default_rng(5).random(3)
        p = policy.survival_probability[CheckpointLevel.LOCAL]
        survivors = [i for i, u in zip((2, 0), draws[1:]) if u <= p]
        expected = 3 if draws[0] <= p else (survivors[0] if survivors else None)
        assert surviving_id(ledger, policy, np.random.default_rng(5)) == expected

    def test_stops_drawing_at_the_first_survivor(self):
        policy = MultilevelPolicy()
        ledger = _ledger({0: CheckpointLevel.LOCAL, 1: CheckpointLevel.PFS})
        rng = np.random.default_rng(3)
        assert surviving_id(ledger, policy, rng) == 1
        assert rng.random() == np.random.default_rng(3).random(2)[1]

    def test_empty_ledger_returns_none(self):
        assert surviving_id({}, MultilevelPolicy(), np.random.default_rng(0)) is None
