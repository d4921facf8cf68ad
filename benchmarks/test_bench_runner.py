"""Microbenchmark: event-loop throughput of the fault-tolerance engine.

Times ``FaultToleranceEngine.run()`` end to end (real reduced-size solves
driving the virtual timeline) and reports *simulated iterations per second* —
the rate at which the engine can push solver iterations through the
compute/checkpoint/failure/recovery event machinery.  Three regimes are
measured:

* ``traditional-poisson`` — exact scheme, inline failure handling
  (recovery + rollback are pure clock arithmetic),
* ``lossy-poisson`` — the paper's lossy scheme with solve interrupts and
  restarts,
* ``lossy-weibull-fti`` — the heaviest blocking path: clustered failures
  plus multilevel checkpoint bookkeeping and survival draws,
* ``traditional-poisson-async`` / ``lossy-poisson-async`` — the two-channel
  timeline: overlapped I/O-channel drains of full payloads and dirty-write
  settlement, so the event loop's throughput is tracked for both write
  modes.

Numbers go to ``BENCH_runner.json`` (override with the ``BENCH_RUNNER_JSON``
environment variable); the nightly benchmarks workflow uploads the file as
an artifact so the engine's throughput trajectory is tracked across PRs.
The engine times itself internally (perf_counter), so the file carries real
rates even under ``--benchmark-disable``.

The trajectory-replay cache (:mod:`repro.engine.replay`) is exercised at its
default setting: the first repeat of each scenario records, later repeats
replay, and best-of-3 therefore reports the replayed rate.  Each row carries
``replay_hits`` / ``replay_iterations_saved`` from the final (warm) repeat;
the workflow runs the series a second time under ``REPRO_REPLAY=off`` into
``BENCH_runner_replay_off.json`` so the speedup is tracked per commit.
"""

import json
import os
import time

from conftest import run_once

from repro.cluster.machine import ClusterModel
from repro.engine import FaultToleranceEngine
from repro.engine import run_failure_free
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import Scenario
from repro.solvers import JacobiSolver
from repro.sparse import poisson_system

_REPEATS = 3

_SCENARIOS = {
    "traditional-poisson": (CheckpointingScheme.traditional, Scenario()),
    "lossy-poisson": (lambda: CheckpointingScheme.lossy(1e-4), Scenario()),
    "lossy-weibull-fti": (
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(failure_model="weibull", recovery_levels="fti"),
    ),
    "traditional-poisson-async": (
        CheckpointingScheme.traditional,
        Scenario(write_mode="async"),
    ),
    "lossy-poisson-async": (
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(write_mode="async"),
    ),
}


def _measure():
    problem = poisson_system(8, seed=42)
    solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, problem.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)

    report = {"baseline_iterations": baseline.iterations, "scenarios": {}}
    for name, (scheme_factory, scenario) in _SCENARIOS.items():
        best = None
        last_run = None
        events_processed = 0
        replay_hits = 0
        replay_iterations_saved = 0
        for repeat in range(_REPEATS):
            engine = FaultToleranceEngine(
                solver,
                problem.b,
                scheme_factory(),
                cluster=cluster,
                scale=scale,
                mtti_seconds=300.0,
                checkpoint_interval_seconds=120.0,
                iteration_seconds=iteration_seconds,
                baseline=baseline,
                seed=2018,
                scenario=scenario,
            )
            start = time.perf_counter()
            last_run = engine.run()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            # Deterministic per scenario (same seed every repeat), so the
            # last repeat's count pairs correctly with the best elapsed.
            events_processed = engine.events_processed
            # The final repeat runs against a warm trajectory cache, which
            # is the regime the best-of-N elapsed time measures.
            replay_hits = engine.replay_hits
            replay_iterations_saved = engine.replay_iterations_saved
        report["scenarios"][name] = {
            "seconds": best,
            "total_iterations": last_run.total_iterations,
            "iterations_per_second": last_run.total_iterations / best,
            "events_processed": events_processed,
            "events_per_second": events_processed / best,
            "num_failures": last_run.num_failures,
            "num_checkpoints": last_run.num_checkpoints,
            "converged": last_run.converged,
            "replay_hits": replay_hits,
            "replay_iterations_saved": replay_iterations_saved,
        }
    return report


def test_bench_runner_event_loop(benchmark):
    report = run_once(benchmark, _measure)

    for name, row in report["scenarios"].items():
        # The engine must actually exercise the failure machinery and still
        # push iterations through at a usable simulation rate.
        assert row["converged"], name
        assert row["num_failures"] > 0, name
        assert row["num_checkpoints"] > 0, name
        assert row["iterations_per_second"] > 50.0, name

    out_path = os.environ.get("BENCH_RUNNER_JSON", "BENCH_runner.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print()
    print("engine event-loop throughput (simulated iterations/s)")
    for name, row in sorted(report["scenarios"].items()):
        print(
            f"  {name:24s} {row['iterations_per_second']:10.0f} it/s  "
            f"({row['total_iterations']} iterations, {row['num_failures']} failures, "
            f"{row['num_checkpoints']} checkpoints)"
        )
