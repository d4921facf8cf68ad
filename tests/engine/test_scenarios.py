"""Scenario tests: pluggable failure models and multilevel recovery costing."""

import json

import numpy as np
import pytest

from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
)
from repro.cluster.failures import (
    BurstyFailureModel,
    FailureInjector,
    PoissonFailureModel,
    ScriptedFailureModel,
    WeibullFailureModel,
    make_failure_model,
)
from repro.cluster.machine import ClusterModel
from repro.engine import FaultToleranceEngine
from repro.engine import run_failure_free
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine import Scenario
from repro.engine.events import CheckpointTakenEvent, RecoveryEvent
from repro.utils.rng import default_rng
from repro.solvers import JacobiSolver


def _json(report) -> str:
    """A report's canonical bytes: its dictionary as sorted-key JSON."""
    return json.dumps(report.to_dict(), sort_keys=True)


class TestFailureModels:
    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown failure model"):
            make_failure_model("lognormal", 3600.0)

    @pytest.mark.parametrize("name", ["poisson", "weibull", "bursty"])
    def test_mean_interarrival_matches_mtti(self, name):
        model = make_failure_model(name, 500.0)
        rng = default_rng(7)
        gaps = [
            model.next_gap(rng, failure_index=i, last_time=0.0) for i in range(40000)
        ]
        assert model.mean_interarrival == 500.0
        assert np.mean(gaps) == pytest.approx(500.0, rel=0.05)

    def test_weibull_is_burstier_than_poisson(self):
        rng_p, rng_w = default_rng(1), default_rng(1)
        poisson = PoissonFailureModel(100.0)
        weibull = WeibullFailureModel(100.0, shape=0.6)
        gp = [poisson.next_gap(rng_p, failure_index=i, last_time=0.0) for i in range(20000)]
        gw = [weibull.next_gap(rng_w, failure_index=i, last_time=0.0) for i in range(20000)]
        # Infant-mortality inter-arrivals have a heavier small-gap mass.
        assert np.median(gw) < np.median(gp)
        assert np.std(gw) > np.std(gp)

    def test_bursty_mixture_shapes(self):
        model = BurstyFailureModel(1000.0, burst_prob=0.3, burst_fraction=0.02)
        rng = default_rng(3)
        gaps = np.array(
            [model.next_gap(rng, failure_index=i, last_time=0.0) for i in range(30000)]
        )
        assert np.mean(gaps) == pytest.approx(1000.0, rel=0.05)
        # Roughly burst_prob of the gaps come from the short scale.
        assert 0.2 < np.mean(gaps < 100.0) < 0.45

    def test_scripted_model_places_exact_times(self):
        injector = FailureInjector(model=ScriptedFailureModel([10.0, 25.0]))
        assert injector.peek() == 10.0
        assert injector.strike_time(0.0) == 10.0
        injector.consume(10.0, "compute")
        assert injector.peek() == 25.0
        injector.consume(25.0, "compute")
        assert injector.peek() == float("inf")

    def test_scripted_validation(self):
        with pytest.raises(ValueError):
            ScriptedFailureModel([5.0, 5.0])
        with pytest.raises(ValueError):
            ScriptedFailureModel([0.0])

    def test_default_injector_stream_unchanged(self):
        """An explicit Poisson model draws the same stream as the default."""
        a = FailureInjector(700.0, seed=5)
        b = FailureInjector(700.0, seed=5, model=PoissonFailureModel(700.0))
        for _ in range(50):
            assert a.peek() == b.peek()
            a.consume(a.peek())
            b.consume(b.peek())

    def test_poisson_scenario_injector_draws_the_default_stream(self):
        """The default scenario's injector draws what ``FailureInjector(mtti)``
        draws, so Poisson needs no special case in ``build_injector``."""
        a = FailureInjector(700.0, seed=5)
        b = Scenario().build_injector(700.0, seed=5)
        for _ in range(50):
            assert a.peek() == b.peek()
            a.consume(a.peek())
            b.consume(b.peek())

    @pytest.mark.parametrize("mtti", [None, float("inf")])
    def test_scenario_injector_disabled_without_mtti(self, mtti):
        injector = Scenario(failure_model="weibull").build_injector(mtti, seed=5)
        assert injector.model is None
        assert injector.peek() == float("inf")


@pytest.fixture(scope="module")
def scenario_setup(poisson_small):
    solver = JacobiSolver(poisson_small.A, rtol=1e-4, max_iter=100000)
    baseline = run_failure_free(solver, poisson_small.b)
    cluster = ClusterModel(num_processes=2048)
    scale = paper_scale(2048)
    iteration_seconds = cluster.calibrated_iteration_time("jacobi", baseline.iterations)
    return poisson_small, solver, baseline, cluster, scale, iteration_seconds


def _run(scenario_setup, scheme, scenario, seed=11, **kwargs):
    problem, solver, baseline, cluster, scale, iteration_seconds = scenario_setup
    defaults = dict(
        cluster=cluster,
        scale=scale,
        mtti_seconds=400.0,
        checkpoint_interval_seconds=150.0,
        iteration_seconds=iteration_seconds,
        baseline=baseline,
        seed=seed,
        scenario=scenario,
    )
    defaults.update(kwargs)
    engine = FaultToleranceEngine(solver, problem.b, scheme, **defaults)
    return engine, engine.run()


class TestScenarioRuns:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(failure_model="lognormal")
        with pytest.raises(ValueError):
            Scenario(recovery_levels="tape")
        assert Scenario().is_paper_regime
        assert not Scenario(failure_model="weibull").is_paper_regime

    @pytest.mark.parametrize("model", ["weibull", "bursty"])
    def test_alternative_models_deterministic_and_distinct(self, scenario_setup, model):
        scheme = CheckpointingScheme.lossy(1e-4)
        _, first = _run(scenario_setup, scheme, Scenario(failure_model=model))
        _, again = _run(scenario_setup, scheme, Scenario(failure_model=model))
        assert _json(first) == _json(again)
        assert first.info["failure_model"] == model
        _, poisson = _run(scenario_setup, scheme, Scenario())
        assert _json(first) != _json(poisson)
        assert "failure_model" not in poisson.info

    def test_fti_recovery_prices_levels(self, scenario_setup):
        scheme = CheckpointingScheme.lossy(1e-4)
        engine, report = _run(
            scenario_setup, scheme, Scenario(recovery_levels="fti"), record_events=True
        )
        assert report.info["recovery_levels"] == "fti"
        checkpoints = engine.events.of_type(CheckpointTakenEvent)
        levels = {c.level for c in checkpoints}
        # The FTI default cycle writes mostly non-PFS checkpoints.
        assert levels - {int(CheckpointLevel.PFS)}
        _, pfs_report = _run(scenario_setup, scheme, Scenario())
        assert pfs_report.num_failures > 0
        # Same failure stream, different recovery/checkpoint pricing.
        assert _json(report) != _json(pfs_report)

    def test_fti_cheap_levels_write_faster(self, scenario_setup):
        scheme = CheckpointingScheme.traditional()
        engine, report = _run(
            scenario_setup,
            scheme,
            Scenario(recovery_levels="fti"),
            mtti_seconds=None,
            record_events=True,
        )
        checkpoints = engine.events.of_type(CheckpointTakenEvent)
        by_level = {}
        for c in checkpoints:
            by_level.setdefault(c.level, set()).add(round(c.seconds, 9))
        local = int(CheckpointLevel.LOCAL)
        pfs = int(CheckpointLevel.PFS)
        if local in by_level and pfs in by_level:
            assert max(by_level[local]) < min(by_level[pfs])

    def test_fti_survival_fallback_to_scratch(self, scenario_setup):
        # All-local cycle with zero survival: every failure destroys every
        # checkpoint, so each recovery falls back to a from-scratch restart.
        policy = MultilevelPolicy(
            cycle=[CheckpointLevel.LOCAL],
            survival_probability={
                CheckpointLevel.LOCAL: 0.0,
                CheckpointLevel.PARTNER: 1.0,
                CheckpointLevel.REED_SOLOMON: 1.0,
                CheckpointLevel.PFS: 1.0,
            },
        )
        # A generous MTTI keeps the from-scratch loop survivable (losing
        # every checkpoint on every failure is brutal by construction).
        engine, report = _run(
            scenario_setup,
            CheckpointingScheme.lossy(1e-4),
            Scenario(recovery_levels="fti"),
            multilevel_policy=policy,
            mtti_seconds=1500.0,
            record_events=True,
        )
        assert report.num_failures > 0
        recoveries = engine.events.of_type(RecoveryEvent)
        assert recoveries
        assert all(r.from_scratch for r in recoveries)
        assert report.converged

    def test_fti_store_seed_distinct_per_run_seed(self):
        import numpy as np

        scenario = Scenario(recovery_levels="fti")
        # np.integer seeds must not collapse to one shared survival stream.
        store_a = scenario.build_multilevel_store(np.int64(1))
        store_b = scenario.build_multilevel_store(np.int64(2))
        draws_a = [store_a._rng.random() for _ in range(8)]
        draws_b = [store_b._rng.random() for _ in range(8)]
        assert draws_a != draws_b
        # ...and a plain int and its np.integer twin agree.
        store_c = scenario.build_multilevel_store(2)
        assert draws_b == [store_c._rng.random() for _ in range(8)]
        assert scenario.build_multilevel_store(None) is not None
        assert Scenario().build_multilevel_store(1) is None

    def test_fti_retention_bounded_and_deterministic(self, scenario_setup):
        scenario = Scenario(recovery_levels="fti")
        engine, report = _run(
            scenario_setup, CheckpointingScheme.lossy(1e-4), scenario, seed=23
        )
        # Records older than the newest certain-survival (PFS) checkpoint are
        # unreachable fallbacks and get pruned, bounding retention at one
        # level cycle.
        cycle_length = len(engine._store.policy.cycle)
        assert report.num_checkpoints > cycle_length
        assert len(engine._state.records) <= cycle_length
        assert len(engine._store.ids()) <= cycle_length
        _, again = _run(
            scenario_setup, CheckpointingScheme.lossy(1e-4), scenario, seed=23
        )
        assert _json(again) == _json(report)

    def test_fti_survival_keeps_pfs_checkpoints(self, scenario_setup):
        # All-PFS cycle: survival is certain, so recoveries never fall back.
        policy = MultilevelPolicy(cycle=[CheckpointLevel.PFS])
        engine, report = _run(
            scenario_setup,
            CheckpointingScheme.lossy(1e-4),
            Scenario(recovery_levels="fti"),
            multilevel_policy=policy,
            record_events=True,
        )
        assert report.num_failures > 0
        recoveries = engine.events.of_type(RecoveryEvent)
        post_checkpoint = [r for r in recoveries if r.from_iteration > 0]
        # Once a checkpoint exists, every recovery restores it.
        if engine.events.of_type(CheckpointTakenEvent):
            assert post_checkpoint
        assert report.converged
