#!/usr/bin/env python
"""Asynchronous (overlapped) vs blocking checkpoint writes, per scheme.

The paper — and the engine's default ``blocking`` write mode — charges every
checkpoint write inline: the solver stalls for compression *plus* the PFS
write.  ``Scenario(write_mode="async")`` splits the timeline into a compute
channel and an I/O channel: the solver stalls only for the inline capture
while the storage write *drains* in the background (shipping the same full
payload a blocking write would), at the cost of a small compute-interference surcharge and
dirty-write risk — a failure mid-drain falls back to the previous completed
checkpoint.

This study runs each checkpointing scheme under injected failures in both
write modes (same seeds, same Young-optimal interval) and reports the
overhead reduction the overlap buys.

Run:  python examples/async_vs_blocking_study.py [jacobi|gmres|cg]

The campaign-grid version of this sweep (``write_mode x scheme``) is
available as::

    python -m repro.campaign --preset async-vs-blocking
"""

from __future__ import annotations

import sys

import numpy as np

from repro.cluster import ClusterModel
from repro.core import paper_scale
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
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

        overheads = {"blocking": [], "async": []}
        drains, dirty = [], []
        for mode in ("blocking", "async"):
            for rep in range(repetitions):
                report = FaultToleranceEngine(
                    solver, problem.b, scheme,
                    cluster=cluster, scale=scale,
                    mtti_seconds=config.mtti_seconds,
                    checkpoint_interval_seconds=interval,
                    iteration_seconds=iteration_seconds,
                    method=method, baseline=baseline, seed=config.seed + rep,
                    scenario=Scenario(write_mode=mode),
                ).run()
                overheads[mode].append(report.fault_tolerance_overhead)
                if mode == "async":
                    drains.append(report.io_drain_seconds)
                    dirty.append(report.info.get("num_dirty_checkpoints", 0))
        blocking = float(np.mean(overheads["blocking"]))
        asynchronous = float(np.mean(overheads["async"]))
        reduction = 100.0 * (blocking - asynchronous) / blocking if blocking else 0.0
        rows.append([
            scheme.name,
            f"{timings.checkpoint_seconds:.1f}",
            f"{interval:.0f}",
            f"{blocking:.0f}",
            f"{asynchronous:.0f}",
            f"{reduction:.1f}%",
            f"{np.mean(drains):.0f}",
            f"{np.mean(dirty):.1f}",
        ])

    print(format_table(
        ["scheme", "Tckp (s)", "interval (s)", "blocking ovh (s)",
         "async ovh (s)", "reduction", "drain (s)", "dirty ckpts"],
        rows,
        title=(f"Overlapped vs blocking checkpoint writes for {method} "
               "at 2,048 processes, MTTI = 1 h"),
    ))
    print("overhead = total wall-clock minus failure-free productive time; "
          "drain time runs on the I/O channel and overlaps compute.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "jacobi")
