"""Ablations beyond the paper's evaluation, at ``DEFAULT_CONFIG``.

* compressor families (SZ-like, ZFP-like, lossless) on a solver iterate;
* the error-bound sweep extended from CG (Fig. 2) to Jacobi and GMRES;
* the measured overhead around Young's checkpoint interval;
* FTI-style multilevel checkpointing against the paper's PFS-only writes.

Run with ``-s`` to see each ablation's table.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
    surviving_id,
)
from repro.cluster import ClusterModel
from repro.compression import (
    LzmaCompressor,
    SZCompressor,
    ZFPCompressor,
    ZlibCompressor,
    evaluate_compressor,
)
from repro.core import (
    CheckpointingScheme,
    measure_extra_iterations,
    paper_scale,
    young_interval,
)
from repro.engine import FaultToleranceEngine, run_failure_free
from repro.experiments.characterize import measure_scheme_ratio, scheme_timings
from repro.experiments.config import method_problem, method_solver
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table


def _solver_iterate(config, method="cg"):
    problem = method_problem(config, method)
    solver = method_solver(config, method, problem)
    baseline = solver.solve(problem.b)
    captured = {}
    target = max(1, baseline.iterations // 2)

    def capture(state):
        if state.iteration == target:
            captured["x"] = state.x

    solver.solve(problem.b, callback=capture)
    return captured["x"]


def test_ablation_compressor_families(paper_config):
    """The paper picks SZ over ZFP for its better ratios on 1-D vectors; this
    repeats the comparison on a mid-run CG iterate, with lossless baselines."""
    x = _solver_iterate(paper_config)
    compressors = [
        SZCompressor(1e-4),
        SZCompressor(1e-4, predictor="linear"),
        ZFPCompressor(1e-4),
        ZlibCompressor(),
        LzmaCompressor(),
    ]
    evaluations = [evaluate_compressor(c, x) for c in compressors]
    rows = [
        [
            ev.compressor,
            f"{ev.ratio:.1f}",
            f"{ev.max_pointwise_relative_error:.1e}",
            f"{ev.compress_seconds * 1e3:.1f}",
            f"{ev.decompress_seconds * 1e3:.1f}",
        ]
        for ev in evaluations
    ]
    print(
        "\n"
        + format_table(
            ["compressor", "ratio", "max pw-rel error", "compress ms", "decompress ms"],
            rows,
            title="Ablation — compressor families on a mid-run CG iterate",
        )
    )
    by_name = {}
    for ev in evaluations:
        by_name.setdefault(ev.compressor, ev)
    # Error bounds honoured by the lossy compressors; lossless ones are exact.
    assert by_name["sz"].max_pointwise_relative_error <= 1e-4 * (1 + 1e-8)
    assert by_name["zfp"].max_pointwise_relative_error <= 1e-4 * (1 + 1e-8)
    assert by_name["zlib"].max_abs_error == 0.0
    # The paper's selection criterion: the prediction-based (SZ-like)
    # compressor beats the lossless ones by a wide margin on 1-D iterates.
    assert by_name["sz"].ratio > 3 * by_name["zlib"].ratio
    assert by_name["zfp"].ratio > by_name["zlib"].ratio


ERROR_BOUNDS = (1e-3, 1e-4, 1e-5)


def test_ablation_error_bound_sweep(paper_config):
    """Section 4.4's per-family impact: Jacobi ~ 0 extra iterations, GMRES ~ 0
    with the adaptive policy, CG 10-25%."""
    results = {}
    for method in ("jacobi", "gmres", "cg"):
        problem = method_problem(paper_config, method)
        solver = method_solver(paper_config, method, problem)
        for eb in ERROR_BOUNDS:
            results[(method, eb)] = measure_extra_iterations(
                solver, problem.b, SZCompressor(eb), trials=6,
                seed=paper_config.seed + int(-np.log10(eb)),
            )
    rows = [
        [method, f"{eb:.0e}", f"{study.mean_extra_iterations:.1f}",
         f"{100 * study.mean_extra_fraction:.1f}%"]
        for (method, eb), study in results.items()
    ]
    print(
        "\n"
        + format_table(
            ["method", "error bound", "mean extra iters", "mean extra %"],
            rows,
            title="Ablation — extra iterations per lossy recovery vs error bound",
        )
    )
    for eb in ERROR_BOUNDS:
        # Section 4.4: the stationary method suffers little delay (the bound of
        # Theorem 2 at the reduced grid's spectral radius allows a few percent
        # at eb = 1e-3), while restarted CG pays a visible but bounded delay.
        assert results[("jacobi", eb)].mean_extra_fraction <= 0.10
        assert results[("cg", eb)].mean_extra_fraction <= 0.5
    # At the paper's bound (1e-4) Jacobi's delay is essentially zero.
    assert results[("jacobi", 1e-4)].mean_extra_fraction <= 0.02


def test_ablation_checkpoint_interval(paper_config):
    """The paper always uses Young's interval: intervals 4x shorter or 4x
    longer do not beat it on average for the lossy scheme."""
    method = "jacobi"
    problem = method_problem(paper_config, method)
    solver = method_solver(paper_config, method, problem)
    baseline = run_failure_free(solver, problem.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    scheme = CheckpointingScheme.lossy(paper_config.error_bound)
    char = measure_scheme_ratio(solver, problem.b, scheme, method=method)
    timings = scheme_timings(scheme, method, char.mean_ratio, scale, cluster)
    iteration_seconds = cluster.calibrated_iteration_time(method, baseline.iterations)
    optimal = young_interval(timings.checkpoint_seconds, paper_config.mtti_seconds)

    means = {}
    for factor in (0.25, 1.0, 4.0):
        overheads = []
        for rep in range(10):
            report = FaultToleranceEngine(
                solver, problem.b, scheme,
                cluster=cluster, scale=scale,
                mtti_seconds=paper_config.mtti_seconds,
                checkpoint_interval_seconds=optimal * factor,
                iteration_seconds=iteration_seconds,
                method=method, baseline=baseline,
                seed=derive_seed(paper_config.seed, rep, int(factor * 100)),
            ).run()
            overheads.append(report.overhead_fraction)
        means[factor] = float(np.mean(overheads))
    rows = [
        [f"{factor}x Young", f"{optimal * factor:.0f}", f"{100 * value:.1f}%"]
        for factor, value in sorted(means.items())
    ]
    print(
        "\n"
        + format_table(
            ["interval", "seconds", "mean overhead"],
            rows,
            title="Ablation — checkpoint-interval sensitivity (Jacobi, lossy scheme)",
        )
    )
    # Young's interval is no worse than the clearly-too-frequent and the
    # clearly-too-rare settings (allowing a little sampling noise).
    assert means[1.0] <= means[0.25] * 1.15
    assert means[1.0] <= means[4.0] * 1.15


#: Checkpoints written in the multilevel ablation.
NUM_CHECKPOINTS = 60
#: Ledgers of 55-60 checkpoints: one ending at each slot of the FTI cycle.
LEDGER_LENGTHS = range(
    NUM_CHECKPOINTS - len(MultilevelPolicy().cycle) + 1, NUM_CHECKPOINTS + 1
)


def test_ablation_multilevel_checkpointing():
    """How much cheaper the checkpoint stream gets when most checkpoints go to
    faster FTI levels, and how far a failure then rolls back.

    Failures are drawn against ledgers whose newest checkpoint sits at every
    position of the level cycle: a ledger that always ends on the cycle's PFS
    slot never falls back at all.
    """
    pfs_write_seconds = 40.0  # one lossy checkpoint at 2,048 processes

    def simulate(policy_name, policy, seed):
        levels = [policy.level_for(i) for i in range(NUM_CHECKPOINTS)]
        write_cost = sum(
            pfs_write_seconds * policy.cost_multiplier[level] for level in levels
        )
        # Sample the rollback distance (in checkpoints) seen by failures.
        rng = np.random.default_rng(seed)
        distances = []
        for length in LEDGER_LENGTHS:
            ledger = {i: SimpleNamespace(level=int(levels[i])) for i in range(length)}
            newest = length - 1
            for _ in range(200):
                surviving = surviving_id(ledger, policy, rng)
                distances.append(newest - (surviving if surviving is not None else -1))
        return {
            "name": policy_name,
            "write_seconds": write_cost,
            "mean_rollback_checkpoints": float(np.mean(distances)),
        }

    pfs_only = simulate(
        "PFS-only (paper)", MultilevelPolicy(cycle=[CheckpointLevel.PFS]), seed=1
    )
    multilevel = simulate("FTI-style multilevel", MultilevelPolicy(), seed=2)
    rows = [
        [r["name"], f"{r['write_seconds']:.0f}", f"{r['mean_rollback_checkpoints']:.2f}"]
        for r in (pfs_only, multilevel)
    ]
    print(
        "\n"
        + format_table(
            ["policy", "total write seconds", "mean extra rollback (checkpoints)"],
            rows,
            title="Ablation — multilevel checkpointing cost vs rollback distance",
        )
    )
    # Multilevel writes are much cheaper in aggregate...
    assert multilevel["write_seconds"] < 0.6 * pfs_only["write_seconds"]
    # ...at the price of sometimes rolling back further than one checkpoint.
    assert multilevel["mean_rollback_checkpoints"] > pfs_only["mean_rollback_checkpoints"]


@pytest.mark.parametrize("length", LEDGER_LENGTHS)
def test_multilevel_rollback_at_each_cycle_position(length):
    """Where the newest checkpoint sits in the FTI cycle decides how far a
    failure rolls back: never past a PFS checkpoint, which always survives,
    and past the newest one only when it is on a cheaper level."""
    policy = MultilevelPolicy()
    ledger = {i: SimpleNamespace(level=int(policy.level_for(i))) for i in range(length)}
    newest = length - 1
    newest_pfs = max(i for i in ledger if policy.level_for(i) == CheckpointLevel.PFS)
    rng = np.random.default_rng(length)
    distances = [newest - surviving_id(ledger, policy, rng) for _ in range(200)]
    assert max(distances) <= newest - newest_pfs
    if newest == newest_pfs:
        assert max(distances) == 0
    else:
        assert np.mean(distances) > 0
