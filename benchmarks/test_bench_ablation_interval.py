"""Ablation: sensitivity of the measured overhead to the checkpoint interval.

The paper always uses Young's optimal interval; this ablation verifies that
the optimum is real — intervals far from the Young value (4x shorter or 4x
longer) do not beat it on average for the lossy scheme.
"""

import numpy as np
from conftest import run_once

from repro.cluster import ClusterModel
from repro.core import CheckpointingScheme, paper_scale, young_interval
from repro.engine import FaultToleranceEngine
from repro.engine import run_failure_free
from repro.experiments.characterize import measure_scheme_ratio, scheme_timings
from repro.experiments.config import method_problem, method_solver
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table


def test_bench_ablation_checkpoint_interval(benchmark, bench_config):
    method = "jacobi"
    problem = method_problem(bench_config, method)
    solver = method_solver(bench_config, method, problem)
    baseline = run_failure_free(solver, problem.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    scheme = CheckpointingScheme.lossy(bench_config.error_bound)
    char = measure_scheme_ratio(solver, problem.b, scheme, method=method)
    timings = scheme_timings(scheme, method, char.mean_ratio, scale, cluster)
    iteration_seconds = cluster.calibrated_iteration_time(method, baseline.iterations)
    optimal = young_interval(timings.checkpoint_seconds, bench_config.mtti_seconds)

    def sweep():
        means = {}
        for factor in (0.25, 1.0, 4.0):
            overheads = []
            for rep in range(10):
                report = FaultToleranceEngine(
                    solver, problem.b, scheme,
                    cluster=cluster, scale=scale,
                    mtti_seconds=bench_config.mtti_seconds,
                    checkpoint_interval_seconds=optimal * factor,
                    iteration_seconds=iteration_seconds,
                    method=method, baseline=baseline,
                    seed=derive_seed(bench_config.seed, rep, int(factor * 100)),
                ).run()
                overheads.append(report.overhead_fraction)
            means[factor] = float(np.mean(overheads))
        return means

    means = run_once(benchmark, sweep)
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
