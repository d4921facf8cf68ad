"""Paper-regime report pins (byte-identical ``FTRunReport.to_dict()`` as sorted-key JSON).

The default scenario — Poisson failure arrivals, PFS-only recovery,
blocking writes, checkpoints priced from their measured pipeline payloads —
is the regime every paper figure runs in.  Its reports are pinned in
``golden/paper_regime.json`` across a (solver × scheme × seed) grid with
failures, one failure-free run and both give-up paths, so a refactor that
moves the machinery but not the physics keeps every byte.

Regenerate (only when a behavior change is intentional) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/engine/test_equivalence.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import FaultToleranceEngine, run_failure_free
from repro.solvers import BiCGStabSolver, CGSolver, GMRESSolver, JacobiSolver


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_regime.json"
_REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

SEEDS = (0, 1, 2)

SOLVER_FACTORIES = {
    "jacobi": lambda A: JacobiSolver(A, rtol=1e-4, max_iter=50000),
    "cg": lambda A: CGSolver(A, rtol=1e-7, max_iter=50000),
    "gmres": lambda A: GMRESSolver(A, rtol=7e-5, max_iter=50000),
    "bicgstab": lambda A: BiCGStabSolver(A, rtol=1e-7, max_iter=50000),
}

SCHEME_FACTORIES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
}

#: The two ways a run gives up: the restart cap and the iteration budget.
GIVE_UP_LIMITS = ("max_restarts", "max_total_iterations")


@pytest.fixture(scope="module")
def grid_setup(poisson_small):
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    baselines = {}
    solvers = {}
    for name, factory in SOLVER_FACTORIES.items():
        solver = factory(poisson_small.A)
        solvers[name] = solver
        baselines[name] = run_failure_free(solver, poisson_small.b)
    return poisson_small, cluster, scale, solvers, baselines


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden fixture missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text())


def _cases(baselines):
    """Case name -> (method, scheme, seed, engine keyword overrides)."""
    cases = {}
    for method in sorted(SOLVER_FACTORIES):
        for scheme in sorted(SCHEME_FACTORIES):
            for seed in SEEDS:
                cases[f"{method}-{scheme}-seed{seed}"] = (method, scheme, seed, {})
    cases["failure-free"] = (
        "jacobi",
        "lossy",
        3,
        {
            "mtti_seconds": None,
            "checkpoint_interval_seconds": 600.0,
            "estimated_checkpoint_seconds": None,
        },
    )
    budget = max(2, baselines["jacobi"].iterations // 2)
    for limit, value in zip(GIVE_UP_LIMITS, (0, budget)):
        for seed in SEEDS:
            cases[f"give-up-{limit}-seed{seed}"] = (
                "jacobi",
                "lossy",
                seed,
                {"mtti_seconds": 120.0, limit: value},
            )
    return cases


def _run_case(grid_setup, name):
    problem, cluster, scale, solvers, baselines = grid_setup
    method, scheme, seed, overrides = _cases(baselines)[name]
    baseline = baselines[method]
    kwargs = dict(
        cluster=cluster,
        scale=scale,
        mtti_seconds=600.0,
        estimated_checkpoint_seconds=40.0,
        iteration_seconds=cluster.calibrated_iteration_time(
            method, baseline.iterations
        ),
        method=method,
        baseline=baseline,
        seed=seed,
    )
    kwargs.update(overrides)
    return FaultToleranceEngine(
        solvers[method], problem.b, SCHEME_FACTORIES[scheme](), **kwargs
    ).run()


def _assert_pinned(grid_setup, golden, name):
    report = _run_case(grid_setup, name)
    assert name in golden, f"{name} missing from fixture — regenerate"
    assert json.loads(_json(report)) == golden[name], (
        f"{name}: FTRunReport drifted from the paper-regime pin"
    )
    return report


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("method", sorted(SOLVER_FACTORIES))
def test_reports_byte_identical(grid_setup, golden, scheme_name, method):
    failures_seen = 0
    for seed in SEEDS:
        report = _assert_pinned(grid_setup, golden, f"{method}-{scheme_name}-seed{seed}")
        failures_seen += report.num_failures
    # The grid must actually exercise the failure paths, not just agree on
    # failure-free runs.
    assert failures_seen > 0


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
def test_failure_free_runs_identical(grid_setup, golden):
    report = _assert_pinned(grid_setup, golden, "failure-free")
    assert report.num_failures == 0


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
def test_give_up_paths_identical(grid_setup, golden):
    """Both give-up paths stay byte-identical to the pin."""
    for limit in GIVE_UP_LIMITS:
        for seed in SEEDS:
            _assert_pinned(grid_setup, golden, f"give-up-{limit}-seed{seed}")


@pytest.mark.skipif(_REGEN, reason="regenerating fixture")
def test_pin_covers_the_whole_grid(grid_setup, golden):
    """Every pinned case is still run, and every run case is pinned."""
    assert set(golden) == set(_cases(grid_setup[4]))


@pytest.mark.skipif(not _REGEN, reason="set REPRO_REGEN_GOLDEN=1 to regenerate")
def test_regenerate_golden(grid_setup):
    payload = {
        name: json.loads(_json(_run_case(grid_setup, name)))
        for name in sorted(_cases(grid_setup[4]))
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_no_cg_isinstance_in_engine():
    """The engine is solver-agnostic: no CGSolver special cases remain."""
    import inspect

    import repro.engine.core as engine_module

    source = inspect.getsource(engine_module)
    assert "isinstance(self.solver, CGSolver)" not in source
    assert "CGSolver" not in source


def test_protocol_capture_matches_legacy_krylov_checkpoint(grid_setup):
    """The generic capture stores CG's exact ``(p, rho)`` resume state."""
    problem, _, _, solvers, _ = grid_setup
    solver = solvers["cg"]
    captured = []
    solver.solve(problem.b, callback=lambda s: captured.append(s), max_iter=5)
    state = captured[-1]
    resume = solver.capture_resume_state(state)
    assert resume is not None
    np.testing.assert_array_equal(resume.vectors["p"], np.asarray(state.extras["p"]))
    assert resume.scalars["rho"] == float(state.extras["rho"])
