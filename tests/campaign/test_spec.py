"""Tests for CampaignSpec / RunSpec: grid expansion, determinism, round-trips."""

from dataclasses import replace

import pytest

from repro.axes import METHODS
from repro.campaign.spec import CampaignSpec, RunSpec


class TestRunSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            RunSpec(kind="nonsense")

    @pytest.mark.parametrize("method", ["sor", "cgg", "gauss_seidel", "ssor", "CG"])
    def test_rejects_unknown_method(self, method):
        # Validated at construction, not after a worker has built the problem.
        with pytest.raises(ValueError, match="unknown method"):
            RunSpec(method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_accepts_every_method(self, method):
        assert RunSpec(method=method).method == method

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
        assert base.cache_key() != replace(base, seed=1).cache_key()
        assert base.cache_key() != replace(base, scheme="lossless").cache_key()
        assert (
            base.cache_key()
            != replace(base, params={"trials": 3}).cache_key()
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

    @pytest.mark.parametrize(
        "preset",
        [
            "demo",
            "scheme-sweep",
            "error-bound-sweep",
            "async-vs-blocking",
            "store-backends",
            "mtti-sweep",
        ],
    )
    def test_preset_len_matches_expansion(self, preset):
        from repro.campaign.cli import PRESETS

        spec = PRESETS[preset]()
        cells = spec.expand()
        assert len(spec) == len(cells)
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_async_vs_blocking_preset_sweeps_write_mode_only(self):
        from repro.campaign.cli import PRESETS

        cells = PRESETS["async-vs-blocking"]().expand()
        assert len(cells) == 18
        # Repetition varies fastest, then write mode, then scheme.
        assert [(cell.scheme, cell.write_mode) for cell in cells[::3]] == [
            (scheme, mode)
            for scheme in ("traditional", "lossless", "lossy")
            for mode in ("blocking", "async")
        ]
        assert {cell.method for cell in cells} == {"jacobi"}

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

    def test_scheme_sweep_preset_cell_seeds_are_pinned(self):
        from repro.campaign.cli import PRESETS

        assert [cell.seed for cell in PRESETS["scheme-sweep"]().expand()] == [
            1521472527436295266, 6180367798082376645, 1615891047086183972,
            6439578149334742154, 1875101400453840569, 6345159633644805747,
            3658269509705205739, 8222746275808893983, 3563850991990918450,
            7569829561364552032, 3005352804550782991, 7475411038976470885,
            634357816815789229, 5198834566654581950, 539939288626589216,
            7843748419410373674, 3279271670361112025, 7749329906135532067,
            7808353759623307522, 3149458467536111841, 7902772281503716676,
            5922815826911174110, 1358339077202169165, 5828397298426399416,
            1946031665849564574, 6510508419360912589, 2040450185631405744,
            6254222545262260959, 1689745783509689648, 6348641074154658865,
            4929861853514420485, 270966574852384865, 5024280381840483531,
            4101725765945151743, 8760621049660971336, 4196144296168939993,
            457624815956815485, 5116520099021194434, 363206296095096922,
            4037943767538102154, 8602420520773221081, 4132362284854362307,
            3615845766942228576, 8180322521017395459, 3521427237247898214,
            5860641846218863357, 1201746568823159049, 5766223322996097048,
            7554230715739173875, 2989753950821609079, 7459812184867824269,
            9030499169896587854, 4466022412439845177, 9124917700382117896,
            7052670428254676211, 2393775149814560332, 6958251897542031837,
            5530192619363503761, 871297331580085650, 5435774090197419455,
            2012399072126251471, 6671294355906804252, 1917980543748768384,
            3134511271928240037, 7698988028287654530, 3228929797949045994,
            6640804730485944487, 2076327968564919936, 6735223252359022049,
            8865885543354554272, 4206990263695564934, 8960304065231466286,
            3621695582671875356, 8280590862299665487, 3716114104849089954,
            2842598132973521714, 7501493420421348881, 2748179611115757012,
            4106546119035482578, 8671022872130667856, 4200964649673507052,
        ]

    def test_store_backends_preset_cell_seeds_are_pinned(self):
        from repro.campaign.cli import PRESETS

        assert [cell.seed for cell in PRESETS["store-backends"]().expand()] == [
            8907637237079475222, 1754829143058411968, 8482401068540288620,
            3609515288454037820, 6167640649083516292, 8602437207230140032,
            8722133437770611642, 2648884129731257513, 8126741892544671495,
            8965323644663350948, 8948095509954541872, 1428193277351245515,
            1565613686352291865, 2026543463502059422, 8275328772633170250,
            1857064974719591478, 1255084258433665531, 7393980068794260780,
            6791988657322092346, 3815262976023741462,
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
        assert base.cache_key() != replace(base, failure_model="weibull").cache_key()
        assert base.cache_key() != replace(base, recovery_levels="fti").cache_key()

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


class TestPolicyAxis:
    def test_runspec_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown error-bound policy"):
            RunSpec(error_bound_policy="per_variable")

    def test_policy_changes_cache_key(self):
        base = RunSpec()
        assert base.error_bound_policy == "fixed"
        assert base.cache_key() != replace(base, 
            error_bound_policy="value_range"
        ).cache_key()

    def test_pre_pipeline_dicts_load_defaults(self):
        data = RunSpec().to_dict()
        del data["error_bound_policy"]
        rebuilt = RunSpec.from_dict(data)
        assert rebuilt.error_bound_policy == "fixed"

    def test_grid_expands_policy_axis(self):
        spec = CampaignSpec(
            methods=("jacobi",),
            schemes=("lossy",),
            error_bound_policies=("fixed", "value_range", "residual_adaptive"),
        )
        cells = spec.expand()
        assert len(cells) == 3
        assert len(spec) == len(cells)
        assert {c.error_bound_policy for c in cells} == {
            "fixed", "value_range", "residual_adaptive"
        }
        assert len({cell.cache_key() for cell in cells}) == len(cells)

    def test_default_policy_keeps_historical_seeds(self):
        # The policy axis must not re-seed pre-pipeline campaigns: pinning the
        # default expands to exactly the same cells as not mentioning it.
        base = CampaignSpec(methods=("jacobi", "cg"), repetitions=3, seed=99)
        pinned = CampaignSpec(
            methods=("jacobi", "cg"),
            repetitions=3,
            seed=99,
            error_bound_policies=("fixed",),
        )
        assert base.expand() == pinned.expand()
        # Non-default coordinates draw distinct seeds.
        varied = CampaignSpec(
            methods=("jacobi",),
            error_bound_policies=("fixed", "value_range"),
            repetitions=2,
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
        assert base.cache_key() != replace(base, write_mode="async").cache_key()

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
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2
        assert len(spec) == len(cells)
        coords = {(c.scheme, c.write_mode) for c in cells}
        assert len(coords) == 4
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
            base.cache_key() != replace(base, store_backend="chunked").cache_key()
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
