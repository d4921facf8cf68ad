"""Ablation: FTI-style multilevel checkpointing vs PFS-only checkpointing.

The paper writes every checkpoint to the PFS (FTI level 4).  This ablation
quantifies, with the multilevel cost/survival model, how much cheaper the
checkpoint stream becomes when most checkpoints go to faster levels — and how
often a failure then has to fall back to an older surviving checkpoint.
"""

from types import SimpleNamespace

import numpy as np
from conftest import run_once

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
    surviving_id,
)
from repro.utils.tables import format_table


def test_bench_ablation_multilevel_checkpointing(benchmark):
    pfs_write_seconds = 40.0  # one lossy checkpoint at 2,048 processes
    num_checkpoints = 60

    def simulate(policy_name, policy, seed):
        levels = [policy.level_for(i) for i in range(num_checkpoints)]
        ledger = {i: SimpleNamespace(level=int(level)) for i, level in enumerate(levels)}
        write_cost = sum(
            pfs_write_seconds * policy.cost_multiplier[level] for level in levels
        )
        # Sample the rollback distance (in checkpoints) seen by failures.
        rng = np.random.default_rng(seed)
        newest = num_checkpoints - 1
        distances = []
        for _ in range(200):
            surviving = surviving_id(ledger, policy, rng)
            distances.append(newest - (surviving if surviving is not None else -1))
        return {
            "name": policy_name,
            "write_seconds": write_cost,
            "mean_rollback_checkpoints": float(np.mean(distances)),
        }

    def run_ablation():
        pfs_only = MultilevelPolicy(cycle=[CheckpointLevel.PFS])
        multilevel = MultilevelPolicy()
        return [
            simulate("PFS-only (paper)", pfs_only, seed=1),
            simulate("FTI-style multilevel", multilevel, seed=2),
        ]

    results = run_once(benchmark, run_ablation)
    rows = [
        [r["name"], f"{r['write_seconds']:.0f}", f"{r['mean_rollback_checkpoints']:.2f}"]
        for r in results
    ]
    print(
        "\n"
        + format_table(
            ["policy", "total write seconds", "mean extra rollback (checkpoints)"],
            rows,
            title="Ablation — multilevel checkpointing cost vs rollback distance",
        )
    )
    pfs_only, multilevel = results
    # Multilevel writes are much cheaper in aggregate...
    assert multilevel["write_seconds"] < 0.6 * pfs_only["write_seconds"]
    # ...at the price of occasionally rolling back further than one checkpoint.
    assert multilevel["mean_rollback_checkpoints"] >= pfs_only["mean_rollback_checkpoints"]
