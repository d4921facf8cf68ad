#!/usr/bin/env python
"""Failure-injection study: traditional vs lossless vs lossy checkpointing.

A miniature version of the paper's Figure 10 experiment for one method: run
the solver under injected failures (MTTI = 1 hour) with each checkpointing
scheme at its Young-optimal interval on the simulated 2,048-process cluster,
and compare the measured fault-tolerance overheads.

Run:  python examples/failure_injection_study.py [jacobi|gmres|cg|bicgstab]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.cluster import ClusterModel
from repro.core import paper_scale
from repro.engine import FaultToleranceEngine, run_failure_free
from repro.experiments.characterize import (
    measure_scheme_ratio,
    measured_scheme_timings,
    standard_schemes,
)
from repro.experiments.config import DEFAULT_CONFIG, method_problem, method_solver
from repro.utils.tables import format_table


def main(method: str = "jacobi", repetitions: int = 6) -> None:
    config = DEFAULT_CONFIG
    problem = method_problem(config, method)
    solver = method_solver(config, method, problem)
    baseline = run_failure_free(solver, problem.b)

    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time(method, baseline.iterations)
    print(f"{method}: failure-free baseline {baseline.iterations} iterations "
          f"({baseline.iterations * iteration_seconds / 60:.0f} virtual minutes)")

    rows = []
    for scheme in standard_schemes(config.error_bound, method=method):
        characterization = measure_scheme_ratio(solver, problem.b, scheme, method=method)
        timings = measured_scheme_timings(scheme, characterization, scale, cluster)
        interval = timings.young_interval(config.mtti_seconds)

        overheads, failures, extras = [], [], []
        for rep in range(repetitions):
            report = FaultToleranceEngine(
                solver, problem.b, scheme,
                cluster=cluster, scale=scale,
                mtti_seconds=config.mtti_seconds,
                checkpoint_interval_seconds=interval,
                iteration_seconds=iteration_seconds,
                method=method, baseline=baseline, seed=config.seed + rep,
            ).run()
            overheads.append(report.overhead_fraction)
            failures.append(report.num_failures)
            extras.append(report.extra_iterations)
        rows.append([
            scheme.name,
            f"{characterization.mean_ratio:.1f}",
            f"{timings.checkpoint_seconds:.1f}",
            f"{interval:.0f}",
            f"{np.mean(failures):.1f}",
            f"{np.mean(extras):.1f}",
            f"{100 * np.mean(overheads):.1f}%",
        ])

    print(format_table(
        ["scheme", "compression ratio", "Tckp (s)", "Young interval (s)",
         "mean failures", "mean extra iters", "mean overhead"],
        rows,
        title=f"Fault-tolerance overhead for {method} at 2,048 processes, MTTI = 1 h",
    ))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "jacobi")
