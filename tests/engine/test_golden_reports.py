"""Golden-report pins for the discrete-event engine.

The paper regime (blocking writes, Poisson arrivals, PFS-only recovery) is
byte-pinned across every solver and scheme in ``test_equivalence.py``.  This
suite extends the bit-identity net to the other axes — async write mode, FTI
multilevel recovery, bursty failure models, chunked stores, and CG
resume-state payloads — by pinning ``FTRunReport.to_dict()`` as sorted-key JSON for a scenario
grid captured from the engine *before* the event-calendar refactor.

Regenerate (only when a behavior change is intentional) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_golden_reports.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, Scenario, run_failure_free
from repro.solvers import CGSolver, JacobiSolver


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)

GOLDEN_PATH = Path(__file__).parent / "golden" / "reports.json"
_REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

# name -> (solver, scheme factory, scenario).  Every case runs at the bench
# configuration (2048 processes, MTTI 300 s, interval 120 s, seed 2018) so the
# grid exercises the same regimes the benchmark and anomaly suites watch.
_GRID = {
    "traditional-async": (
        "jacobi",
        lambda: CheckpointingScheme.traditional(),
        Scenario(write_mode="async"),
    ),
    "lossless-async": (
        "jacobi",
        lambda: CheckpointingScheme.lossless(),
        Scenario(write_mode="async"),
    ),
    "lossy-async": (
        "jacobi",
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(write_mode="async"),
    ),
    "lossy-async-fti-weibull": (
        "jacobi",
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(failure_model="weibull", recovery_levels="fti", write_mode="async"),
    ),
    "lossy-bursty-fti": (
        "jacobi",
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(failure_model="bursty", recovery_levels="fti"),
    ),
    "traditional-async-bursty": (
        "jacobi",
        lambda: CheckpointingScheme.traditional(),
        Scenario(failure_model="bursty", write_mode="async"),
    ),
    "lossy-async-chunked": (
        "jacobi",
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(write_mode="async", store_backend="chunked"),
    ),
    "cg-lossy-async": (
        "cg",
        lambda: CheckpointingScheme.lossy(1e-4),
        Scenario(write_mode="async"),
    ),
}


@pytest.fixture(scope="module")
def golden_setup(poisson_small):
    solvers = {
        "jacobi": JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000),
        "cg": CGSolver(poisson_small.A, rtol=1e-8, max_iter=100000),
    }
    baselines = {
        name: run_failure_free(solver, poisson_small.b)
        for name, solver in solvers.items()
    }
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    return poisson_small, solvers, baselines, cluster, scale


def _run_case(golden_setup, name):
    problem, solvers, baselines, cluster, scale = golden_setup
    solver_name, scheme_factory, scenario = _GRID[name]
    solver = solvers[solver_name]
    baseline = baselines[solver_name]
    engine = FaultToleranceEngine(
        solver,
        problem.b,
        scheme_factory(),
        cluster=cluster,
        scale=scale,
        mtti_seconds=300.0,
        checkpoint_interval_seconds=120.0,
        iteration_seconds=cluster.calibrated_iteration_time(
            solver_name, baseline.iterations
        ),
        baseline=baseline,
        seed=2018,
        scenario=scenario,
    )
    return engine.run()


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden fixture missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
@pytest.mark.parametrize("name", sorted(_GRID))
def test_report_matches_golden(golden_setup, golden, name):
    report = _run_case(golden_setup, name)
    assert name in golden, f"{name} missing from fixture — regenerate"
    expected = golden[name]
    actual = json.loads(_json(report))
    assert actual == expected, (
        f"{name}: FTRunReport drifted from the pre-refactor engine"
    )


@pytest.mark.skipif(not _REGEN, reason="set REPRO_REGEN_GOLDEN=1 to regenerate")
def test_regenerate_golden(golden_setup):
    payload = {
        name: json.loads(_json(_run_case(golden_setup, name)))
        for name in sorted(_GRID)
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
