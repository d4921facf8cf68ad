"""Measured-payload checkpoint costing (the pipeline-unification contract).

Every checkpoint is priced from the measured serialized
:class:`~repro.checkpoint.pipeline.CheckpointPipeline` payload — each
full-length vector scaled to paper size by its *own* compression ratio.
"""

import pytest

from repro.cluster.machine import ClusterModel
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import (
    FaultToleranceEngine,
    Scenario,
    run_failure_free,
)
from repro.solvers import BiCGStabSolver, CGSolver, JacobiSolver

MEASURED = Scenario()


@pytest.fixture(scope="module")
def setup(poisson_medium):
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    return poisson_medium, cluster, scale


def _run(setup, solver, scheme, method, scenario, **kwargs):
    problem, cluster, scale = setup
    baseline = run_failure_free(solver, problem.b)
    defaults = dict(
        cluster=cluster,
        scale=scale,
        mtti_seconds=None,
        checkpoint_interval_seconds=300.0,
        iteration_seconds=cluster.calibrated_iteration_time(
            method, baseline.iterations
        ),
        method=method,
        baseline=baseline,
        seed=7,
        scenario=scenario,
    )
    defaults.update(kwargs)
    engine = FaultToleranceEngine(solver, problem.b, scheme, **defaults)
    return engine, engine.run()


def test_cg_direction_priced_at_its_own_ratio(setup):
    """Lossless CG stores x and p, which compress differently: a checkpoint is
    priced from both measured sizes, not as two copies of x's ratio."""
    problem, _, scale = setup
    solver = CGSolver(problem.A, rtol=1e-7, max_iter=20000)
    engine, report = _run(
        setup, solver, CheckpointingScheme.lossless(), "cg", MEASURED
    )
    assert report.converged and report.num_checkpoints > 0
    assert report.info["checkpoint_costing"] == "measured"
    record = engine._state.last_checkpoint
    x_ratio = record.snapshot.ratio_of("x")
    assert record.snapshot.ratio_of("p") != pytest.approx(x_ratio, rel=1e-6)
    assert record.model_uncompressed_bytes == pytest.approx(
        2 * scale.vector_bytes, rel=1e-6
    )
    assert record.model_compressed_bytes != pytest.approx(
        2 * scale.vector_bytes / x_ratio, rel=1e-6
    )


def test_measured_prices_every_declared_vector(setup):
    """A BiCGSTAB-exact checkpoint is priced as five per-variable vectors."""
    problem, _, scale = setup
    solver = BiCGStabSolver(problem.A, rtol=1e-7, max_iter=20000)
    engine, report = _run(
        setup,
        solver,
        CheckpointingScheme.traditional(),
        "bicgstab",
        MEASURED,
    )
    assert report.converged
    record = engine._state.last_checkpoint
    assert record is not None
    names = {m.name for m in record.snapshot.vector_measurements}
    assert names == {"x", "r", "r_hat", "p", "v"}
    # Uncompressed pricing is five full vectors (plus absolute scalar bytes).
    assert record.model_uncompressed_bytes == pytest.approx(
        5 * scale.vector_bytes, rel=1e-6
    )
    # The serialized payload really holds the recurrence scalars too.
    restored = engine._pipeline.restore(payload=record.snapshot.payload)
    assert restored.resume_state is not None
    assert set(restored.resume_state.scalars) == {"rho_old", "alpha", "omega"}


def test_measured_recovery_priced_from_measured_bytes(setup):
    """Recovery reads flow through the same measured record bytes."""
    problem, cluster, scale = setup
    solver = JacobiSolver(problem.A, rtol=1e-4, max_iter=20000)
    scheme = CheckpointingScheme.lossy(1e-4)
    engine, report = _run(
        setup,
        solver,
        scheme,
        "jacobi",
        MEASURED,
        mtti_seconds=2000.0,
        seed=3,
    )
    assert report.converged
    record = engine._state.last_checkpoint
    expected = cluster.recovery_seconds(
        record.model_uncompressed_bytes,
        record.model_compressed_bytes,
        static_bytes=scale.static_bytes,
        compressed=True,
    )
    assert engine._recovery_seconds(record) == pytest.approx(expected, rel=1e-12)
