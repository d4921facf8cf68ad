"""Tests for CampaignSpec / RunSpec: grid expansion, determinism, round-trips."""

import pytest

from repro.campaign.spec import CampaignSpec, RunSpec


class TestRunSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            RunSpec(kind="nonsense")

    def test_params_are_normalised_and_sorted(self):
        a = RunSpec(params={"b": 2, "a": 1})
        b = RunSpec(params=(("a", 1), ("b", 2)))
        assert a == b
        assert a.param("a") == 1
        assert a.param("missing", 42) == 42

    def test_list_params_become_tuples(self):
        cell = RunSpec(params={"restart_fractions": [0.3, 0.65]})
        assert cell.param("restart_fractions") == (0.3, 0.65)

    def test_json_round_trip(self):
        cell = RunSpec(
            kind="ft",
            method="cg",
            scheme="lossy",
            compressor="zfp",
            error_bound=1e-5,
            adaptive=True,
            num_processes=1024,
            mtti_seconds=None,
            checkpoint_interval_seconds=123.0,
            params={"trials": 7},
        )
        rebuilt = RunSpec.from_dict(cell.to_dict())
        assert rebuilt == cell
        assert rebuilt.cache_key() == cell.cache_key()

    def test_cache_key_depends_on_spec(self):
        base = RunSpec()
        assert base.cache_key() == RunSpec().cache_key()
        assert base.cache_key() != base.with_overrides(seed=1).cache_key()
        assert base.cache_key() != base.with_overrides(scheme="lossless").cache_key()
        assert (
            base.cache_key()
            != base.with_overrides(params={"trials": 3}).cache_key()
        )


class TestCampaignSpec:
    def test_grid_expansion_size_and_len(self):
        spec = CampaignSpec(
            methods=("jacobi", "cg"),
            schemes=("traditional", "lossy"),
            error_bounds=(1e-4, 1e-6),
            process_counts=(256, 2048),
            repetitions=3,
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2 * 2 * 3
        assert len(spec) == len(cells)
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_expansion_is_deterministic(self):
        spec = CampaignSpec(methods=("jacobi",), schemes=("lossy",), repetitions=4)
        assert spec.expand() == spec.expand()

    def test_cells_carry_grid_coordinates(self):
        spec = CampaignSpec(
            methods=("gmres",),
            schemes=("lossy",),
            process_counts=(512,),
            repetitions=2,
            grid_n=9,
            seed=7,
        )
        cells = spec.expand()
        for rep, cell in enumerate(cells):
            assert cell.method == "gmres"
            assert cell.scheme == "lossy"
            assert cell.adaptive  # lossy + gmres gets the Theorem-3 policy
            assert cell.num_processes == 512
            assert cell.repetition == rep
            assert cell.grid_n == 9
            assert cell.problem_seed == 7
        # Distinct repetitions get distinct failure seeds.
        assert cells[0].seed != cells[1].seed

    def test_explicit_cells_override_grid(self):
        explicit = (RunSpec(kind="model", params={"lam": 1e-4, "tckp": 10.0}),)
        spec = CampaignSpec(methods=("jacobi", "cg"), repetitions=5, cells=explicit)
        assert spec.expand() == list(explicit)
        assert len(spec) == 1

    def test_json_round_trip_with_cells(self):
        spec = CampaignSpec(
            name="rt",
            methods=("jacobi",),
            rtols=(("jacobi", 1e-5),),
            cells=(RunSpec(kind="characterize"), RunSpec(kind="solve", method="kkt")),
        )
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()

    def test_rtol_for(self):
        spec = CampaignSpec(rtols=(("cg", 1e-9),))
        assert spec.rtol_for("cg") == 1e-9
        assert spec.rtol_for("jacobi") is None

    def test_demo_preset_cell_seeds_are_pinned(self):
        # Every cached result and golden report is keyed by these seeds.
        from repro.campaign.cli import demo_campaign

        assert [cell.seed for cell in demo_campaign().expand()] == [
            1521472527436295266, 6180367798082376645, 1615891047086183972,
            6274786325931221259, 3658269509705205739, 8222746275808893983,
            3563850991990918450, 8128327745028389297, 7569829561364552032,
            3005352804550782991, 7475411038976470885, 2910934274340700865,
            7843748419410373674, 3279271670361112025, 7749329906135532067,
            3184853143176075068, 7808353759623307522, 3149458467536111841,
            7902772281503716676, 3243876996903292391, 1946031665849564574,
            6510508419360912589, 2040450185631405744, 6604926940952751539,
        ]


class TestScenarioAxis:
    def test_runspec_rejects_unknown_scenario_coordinates(self):
        with pytest.raises(ValueError, match="unknown failure model"):
            RunSpec(failure_model="lognormal")
        with pytest.raises(ValueError, match="unknown recovery levels"):
            RunSpec(recovery_levels="tape")

    def test_runspec_rejects_scripted_model(self):
        # A cell cannot carry scripted failure times, so accepting the model
        # name would silently cache failure-free runs as FT measurements.
        with pytest.raises(ValueError, match="unknown failure model"):
            RunSpec(failure_model="scripted")

    def test_scenario_changes_cache_key(self):
        base = RunSpec()
        assert base.failure_model == "poisson"
        assert base.recovery_levels == "pfs"
        assert base.cache_key() != base.with_overrides(failure_model="weibull").cache_key()
        assert base.cache_key() != base.with_overrides(recovery_levels="fti").cache_key()

    def test_runspec_dict_without_scenario_keys_loads_default(self):
        # Pre-scenario cached specs (CACHE_VERSION <= 2 era) still parse.
        data = RunSpec().to_dict()
        del data["failure_model"]
        del data["recovery_levels"]
        rebuilt = RunSpec.from_dict(data)
        assert rebuilt.failure_model == "poisson"
        assert rebuilt.recovery_levels == "pfs"

    def test_grid_expands_scenario_axes(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            schemes=("lossy",),
            failure_models=("poisson", "weibull", "bursty"),
            recovery_levels=("pfs", "fti"),
            repetitions=2,
        )
        cells = spec.expand()
        assert len(cells) == 3 * 2 * 2
        assert len(spec) == len(cells)
        coords = {(c.failure_model, c.recovery_levels) for c in cells}
        assert len(coords) == 6
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_default_scenario_keeps_historical_seeds(self):
        # The scenario axis must not re-seed pre-scenario campaigns: a grid
        # that pins the default scenario expands to exactly the same cells.
        base = CampaignSpec(methods=("jacobi", "cg"), repetitions=3, seed=99)
        pinned = CampaignSpec(
            methods=("jacobi", "cg"),
            repetitions=3,
            seed=99,
            failure_models=("poisson",),
            recovery_levels=("pfs",),
        )
        assert base.expand() == pinned.expand()

    def test_non_default_scenarios_get_distinct_seeds(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            failure_models=("poisson", "weibull"),
            recovery_levels=("pfs", "fti"),
        )
        cells = spec.expand()
        assert len({c.seed for c in cells}) == len(cells)

    def test_json_round_trip_with_scenario_axes(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            failure_models=("weibull",),
            recovery_levels=("fti",),
        )
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()


class TestPolicyAndCostingAxes:
    def test_runspec_rejects_unknown_policy_and_costing(self):
        with pytest.raises(ValueError, match="unknown error-bound policy"):
            RunSpec(error_bound_policy="per_variable")
        with pytest.raises(ValueError, match="unknown checkpoint costing"):
            RunSpec(checkpoint_costing="guessed")

    def test_policy_and_costing_change_cache_key(self):
        base = RunSpec()
        assert base.error_bound_policy == "fixed"
        assert base.checkpoint_costing == "measured"
        assert base.cache_key() != base.with_overrides(
            error_bound_policy="value_range"
        ).cache_key()
        assert base.cache_key() != base.with_overrides(
            checkpoint_costing="modeled"
        ).cache_key()

    def test_pre_pipeline_dicts_load_defaults(self):
        data = RunSpec().to_dict()
        del data["error_bound_policy"]
        del data["checkpoint_costing"]
        rebuilt = RunSpec.from_dict(data)
        assert rebuilt.error_bound_policy == "fixed"
        assert rebuilt.checkpoint_costing == "measured"

    def test_grid_expands_policy_and_costing_axes(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            schemes=("lossy",),
            error_bound_policies=("fixed", "value_range", "residual_adaptive"),
            checkpoint_costings=("measured", "modeled"),
        )
        cells = spec.expand()
        assert len(cells) == 3 * 2
        assert len(spec) == len(cells)
        coords = {(c.error_bound_policy, c.checkpoint_costing) for c in cells}
        assert len(coords) == 6
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_default_policy_and_costing_keep_historical_seeds(self):
        # The new axes must not re-seed pre-pipeline campaigns: pinning the
        # defaults expands to exactly the same cells as not mentioning them.
        base = CampaignSpec(methods=("jacobi", "cg"), repetitions=3, seed=99)
        pinned = CampaignSpec(
            methods=("jacobi", "cg"),
            repetitions=3,
            seed=99,
            error_bound_policies=("fixed",),
            checkpoint_costings=("measured",),
        )
        assert base.expand() == pinned.expand()
        # Non-default coordinates draw distinct seeds.
        varied = CampaignSpec(
            methods=("jacobi",),
            error_bound_policies=("fixed", "value_range"),
            checkpoint_costings=("measured", "modeled"),
        )
        cells = varied.expand()
        assert len({c.seed for c in cells}) == len(cells)


class TestWriteModeAxis:
    def test_runspec_rejects_unknown_write_mode(self):
        with pytest.raises(ValueError, match="unknown write mode"):
            RunSpec(write_mode="overlapped")

    def test_write_mode_changes_cache_key(self):
        base = RunSpec()
        assert base.write_mode == "blocking"
        assert base.cache_key() != base.with_overrides(write_mode="async").cache_key()

    def test_pre_write_mode_dicts_load_default(self):
        data = RunSpec().to_dict()
        del data["write_mode"]
        rebuilt = RunSpec.from_dict(data)
        assert rebuilt.write_mode == "blocking"

    def test_grid_expands_write_mode_axis(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            schemes=("traditional", "lossy"),
            write_modes=("blocking", "async"),
            checkpoint_costings=("measured", "modeled"),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2
        assert len(spec) == len(cells)
        coords = {(c.scheme, c.write_mode, c.checkpoint_costing) for c in cells}
        assert len(coords) == 8
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_default_write_mode_keeps_historical_seeds(self):
        # The write-mode axis must not re-seed pre-async campaigns: pinning
        # blocking expands to exactly the same cells as not mentioning it.
        base = CampaignSpec(methods=("jacobi", "cg"), repetitions=3, seed=99)
        pinned = CampaignSpec(
            methods=("jacobi", "cg"),
            repetitions=3,
            seed=99,
            write_modes=("blocking",),
        )
        assert base.expand() == pinned.expand()
        varied = CampaignSpec(
            methods=("jacobi",), write_modes=("blocking", "async"), repetitions=2
        )
        cells = varied.expand()
        assert len({c.seed for c in cells}) == len(cells)

    def test_json_round_trip_with_write_mode(self):
        spec = CampaignSpec(methods=("jacobi",), write_modes=("blocking", "async"))
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()


class TestStoreBackendAxis:
    def test_runspec_rejects_unknown_store_backend(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            RunSpec(store_backend="tape")

    def test_store_backend_changes_cache_key(self):
        base = RunSpec()
        assert base.store_backend == "pfs"
        assert (
            base.cache_key() != base.with_overrides(store_backend="chunked").cache_key()
        )

    def test_pre_backend_dicts_load_default(self):
        data = RunSpec().to_dict()
        del data["store_backend"]
        rebuilt = RunSpec.from_dict(data)
        assert rebuilt.store_backend == "pfs"

    def test_grid_expands_store_backend_axis(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            write_modes=("blocking", "async"),
            store_backends=("pfs", "memory", "disk", "object", "chunked"),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 5
        assert len(spec) == len(cells)
        coords = {(c.write_mode, c.store_backend) for c in cells}
        assert len(coords) == 10
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_default_store_backend_keeps_historical_seeds(self):
        # Pinning pfs expands to exactly the same cells as not mentioning the
        # axis, so pre-backend campaign caches stay warm.
        base = CampaignSpec(methods=("jacobi", "cg"), repetitions=3, seed=99)
        pinned = CampaignSpec(
            methods=("jacobi", "cg"),
            repetitions=3,
            seed=99,
            store_backends=("pfs",),
        )
        assert base.expand() == pinned.expand()
        varied = CampaignSpec(
            methods=("jacobi",),
            store_backends=("pfs", "memory", "chunked"),
            repetitions=2,
        )
        cells = varied.expand()
        assert len({c.seed for c in cells}) == len(cells)

    def test_json_round_trip_with_store_backends(self):
        spec = CampaignSpec(methods=("jacobi",), store_backends=("pfs", "chunked"))
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()
