"""Executor tests: serial/parallel equality, cache hit behaviour, progress.

The acceptance demo lives here: a >= 24-cell failure-injected campaign runs
through the ``ProcessPoolExecutor`` path with 4 workers and must aggregate
byte-identically to the serial path; re-running it against the same cache
executes zero cells.
"""

import json

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import ParallelExecutor, run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.spec import CampaignSpec, RunSpec


def _report_json(result) -> str:
    """The campaign report of ``result`` as sorted-key JSON."""
    return json.dumps(CampaignReport(result).to_dict(), sort_keys=True)


def demo_spec() -> CampaignSpec:
    """A small-grid copy of the CLI demo campaign (24 ft cells)."""
    return CampaignSpec(
        name="demo-test",
        kind="ft",
        methods=("jacobi",),
        schemes=("traditional", "lossless", "lossy"),
        process_counts=(256, 2048),
        repetitions=4,
        grid_n=8,
    )


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(demo_spec(), n_workers=1)


class TestSerialExecution:
    def test_outcomes_are_ordered_and_complete(self, serial_result):
        spec = demo_spec()
        assert len(serial_result) == len(spec) == 24
        assert serial_result.cells() == spec.expand()
        assert serial_result.executed_count == 24
        assert serial_result.cached_count == 0

    def test_ft_results_have_reports(self, serial_result):
        for result in serial_result.results():
            assert "report" in result
            assert result["report"]["total_iterations"] >= 1
            assert result["interval_seconds"] > 0

    def test_rerun_is_identical(self, serial_result):
        again = run_campaign(demo_spec(), n_workers=1)
        assert _report_json(again) == _report_json(serial_result)

    def test_scenario_cells_execute(self):
        spec = CampaignSpec(
            name="scenario-test",
            kind="ft",
            methods=("jacobi",),
            schemes=("lossy",),
            failure_models=("weibull",),
            recovery_levels=("fti",),
            grid_n=8,
        )
        outcome = run_campaign(spec, n_workers=1)
        (result,) = outcome.results()
        assert result["failure_model"] == "weibull"
        assert result["recovery_levels"] == "fti"
        assert result["report"]["info"]["failure_model"] == "weibull"
        assert result["report"]["info"]["recovery_levels"] == "fti"
        # Same coordinates, default scenario -> a different report.
        default = run_campaign(
            spec.__class__.from_dict(
                {**spec.to_dict(), "failure_models": ["poisson"], "recovery_levels": ["pfs"]}
            ),
            n_workers=1,
        )
        (default_result,) = default.results()
        assert default_result["report"] != result["report"]


class TestParallelExecution:
    def test_parallel_matches_serial_byte_identically(self, serial_result):
        parallel = run_campaign(demo_spec(), n_workers=4)
        assert parallel.n_workers == 4
        assert _report_json(parallel) == _report_json(serial_result)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        spec = CampaignSpec(
            name="model-grid",
            kind="model",
            cells=tuple(
                RunSpec(kind="model", params={"lam": 1e-4, "tckp": float(t)})
                for t in range(1, 9)
            ),
        )
        run_campaign(spec, n_workers=2, progress=lambda d, t, o: seen.append((d, t)))
        assert len(seen) == 8
        assert seen[-1][0] == 8
        assert all(total == 8 for _, total in seen)


class TestCacheIntegration:
    def test_second_run_executes_zero_cells(self, tmp_path, serial_result):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(demo_spec(), n_workers=4, cache=cache)
        assert first.executed_count == 24
        second = run_campaign(demo_spec(), n_workers=4, cache=cache)
        assert second.executed_count == 0
        assert second.cached_count == 24
        # Cache-served results are byte-identical to the fresh serial run.
        assert _report_json(second) == _report_json(serial_result)

    def test_changed_cells_execute_only_the_delta(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = demo_spec()
        run_campaign(spec, n_workers=1, cache=cache)
        grown = CampaignSpec(
            name=spec.name,
            kind=spec.kind,
            methods=spec.methods,
            schemes=spec.schemes,
            process_counts=spec.process_counts,
            repetitions=spec.repetitions + 1,
            grid_n=spec.grid_n,
        )
        result = run_campaign(grown, n_workers=1, cache=cache)
        assert len(result) == 30
        assert result.cached_count == 24
        assert result.executed_count == 6

    def test_failing_cell_raises_but_other_chunks_still_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "partial")
        cells = [
            RunSpec(kind="model", params={"lam": 1e-4, "tckp": 10.0}),
            RunSpec(kind="model"),  # missing lam/tckp -> ValueError in worker
            RunSpec(kind="model", params={"lam": 1e-4, "tckp": 20.0}),
        ]
        with pytest.raises(ValueError, match="needs 'lam'"):
            run_campaign(cells, n_workers=2, cache=cache)
        # The chunk that did not contain the failing cell was still cached.
        assert len(cache) >= 1

    def test_executor_accepts_cache_path(self, tmp_path):
        cells = [RunSpec(kind="model", params={"lam": 1e-4, "tckp": 5.0})]
        executor = ParallelExecutor(1, cache=tmp_path / "bypath")
        executor.run(cells)
        assert (tmp_path / "bypath" / f"{cells[0].cache_key()}.json").exists()


class TestReport:
    def test_aggregate_groups_and_counts(self, serial_result):
        report = CampaignReport(serial_result)
        grouped = report.aggregate(by=("method", "scheme", "num_processes"))
        assert len(grouped) == 6  # 3 schemes x 2 scales
        for key, row in grouped.items():
            assert row["cells"] == 4.0  # repetitions
            assert "overhead_fraction" in row

    def test_lossy_beats_traditional_in_demo(self, serial_result):
        grouped = CampaignReport(serial_result).aggregate(by=("scheme",))
        assert (
            grouped[("lossy",)]["overhead_fraction"]
            < grouped[("traditional",)]["overhead_fraction"]
        )

    def test_table_renders(self, serial_result):
        table = CampaignReport(serial_result).table()
        assert "demo-test" in table
        assert "overhead_fraction" in table


class TestSchemeBuilding:
    def test_adaptive_upgrades_only_the_default_fixed_policy(self):
        """The paper's GMRES adaptive default must not clobber an explicitly
        swept error-bound policy (the cell would be mislabeled otherwise)."""
        from types import SimpleNamespace

        from repro.campaign.execute import _build_scheme

        def cell(policy):
            return SimpleNamespace(
                scheme="lossy",
                compressor="sz",
                error_bound=1e-4,
                adaptive=True,
                error_bound_policy=policy,
            )

        assert _build_scheme(cell("fixed")).bound_policy.name == "residual_adaptive"
        assert _build_scheme(cell("value_range")).bound_policy.name == "value_range"
        assert (
            _build_scheme(cell("residual_adaptive")).bound_policy.name
            == "residual_adaptive"
        )
