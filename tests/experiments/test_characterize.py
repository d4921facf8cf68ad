"""Tests for the shared characterization helpers."""

from types import SimpleNamespace

import pytest

from repro.campaign import execute
from repro.cluster.machine import ClusterModel
from repro.compression.errorbounds import ResidualAdaptiveBoundPolicy
from repro.core.scale import paper_scale
from repro.core.schemes import CheckpointingScheme
from repro.engine.replay import replay_enabled
from repro.experiments.characterize import (
    measure_scheme_ratio,
    scheme_timings,
    standard_schemes,
)
from repro.experiments.config import SMALL_CONFIG, method_problem, method_solver
from repro.solvers.base import IterativeSolver
import repro.engine.replay as replay_module


class TestMeasureSchemeRatio:
    def test_lossy_ratio_larger_than_lossless(self):
        problem = method_problem(SMALL_CONFIG, "jacobi")
        solver = method_solver(SMALL_CONFIG, "jacobi", problem)
        lossy = measure_scheme_ratio(solver, problem.b, CheckpointingScheme.lossy(1e-4))
        lossless = measure_scheme_ratio(solver, problem.b, CheckpointingScheme.lossless())
        traditional = measure_scheme_ratio(
            solver, problem.b, CheckpointingScheme.traditional()
        )
        assert lossy.mean_ratio > lossless.mean_ratio
        assert traditional.mean_ratio == pytest.approx(1.0, rel=0.05)
        assert lossy.min_ratio <= lossy.mean_ratio

    def test_adaptive_gmres_ratio_positive(self):
        problem = method_problem(SMALL_CONFIG, "gmres")
        solver = method_solver(SMALL_CONFIG, "gmres", problem)
        scheme = CheckpointingScheme.lossy(1e-4, adaptive=True)
        char = measure_scheme_ratio(solver, problem.b, scheme, method="gmres")
        assert char.mean_ratio > 1.0
        assert char.baseline_iterations > 1


class TestCachedCharacterization:
    """The campaign passes its memoized baseline to the characterization."""

    @pytest.mark.parametrize("method", ["jacobi", "cg", "gmres", "bicgstab"])
    @pytest.mark.parametrize("scheme", ["traditional", "lossless", "lossy"])
    def test_one_solve_and_the_hint_free_result(self, monkeypatch, method, scheme):
        """Cold, the characterization solves once.  The hint-free call then
        replays that recording (no solve at all) or, with replay off, solves
        twice: once to count the iterations, once to capture."""
        monkeypatch.setattr(execute, "_MEMO_STORE", None)
        # Recordings other tests left in the process-wide cache must not
        # serve this one.
        monkeypatch.setattr(replay_module, "_GLOBAL_CACHE", None)
        key = (method, 6, 4, 11, 1e-6, 30, 100000)
        axes = (scheme, "sz", 1e-4, False, "fixed")
        problem, solver, _ = execute._cached_setup(*key)  # memoizes the baseline
        execute._cached_characterization.cache_clear()

        solves = []
        solve = IterativeSolver.solve

        def counted(self, *args, **kwargs):
            solves.append(kwargs.get("callback"))
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(IterativeSolver, "solve", counted)
        cached = execute._cached_characterization(*key, *axes)
        assert len(solves) == 1 and solves[0] is not None

        scheme_obj = execute._build_scheme(SimpleNamespace(
            scheme=scheme, compressor="sz", error_bound=1e-4, adaptive=False,
            error_bound_policy="fixed",
        ))
        hint_free = measure_scheme_ratio(solver, problem.b, scheme_obj, method=method)
        assert len(solves) == (1 if replay_enabled() else 3)
        assert execute._characterization_to_dict(cached) == (
            execute._characterization_to_dict(hint_free)
        )


class TestSchemeTimings:
    def test_lossy_cheaper_and_cg_doubles_exact_schemes(self):
        scale = paper_scale(2048)
        cluster = ClusterModel(num_processes=2048)
        trad_cg = scheme_timings(CheckpointingScheme.traditional(), "cg", 1.0, scale, cluster)
        trad_jacobi = scheme_timings(
            CheckpointingScheme.traditional(), "jacobi", 1.0, scale, cluster
        )
        lossy_cg = scheme_timings(CheckpointingScheme.lossy(1e-4), "cg", 20.0, scale, cluster)
        assert trad_cg.checkpoint_seconds > 1.8 * trad_jacobi.checkpoint_seconds
        assert lossy_cg.checkpoint_seconds < trad_cg.checkpoint_seconds / 3
        assert lossy_cg.recovery_seconds > 0

    def test_invalid_ratio(self):
        scale = paper_scale(256)
        cluster = ClusterModel(num_processes=256)
        with pytest.raises(ValueError):
            scheme_timings(CheckpointingScheme.lossless(), "cg", 0.0, scale, cluster)


class TestStandardSchemes:
    def test_three_schemes_in_paper_order(self):
        schemes = standard_schemes(1e-4, method="jacobi")
        assert [s.name for s in schemes] == ["traditional", "lossless", "lossy"]
        assert not isinstance(schemes[2].bound_policy, ResidualAdaptiveBoundPolicy)

    def test_gmres_gets_adaptive_policy(self):
        schemes = standard_schemes(1e-4, method="gmres")
        assert isinstance(schemes[2].bound_policy, ResidualAdaptiveBoundPolicy)
