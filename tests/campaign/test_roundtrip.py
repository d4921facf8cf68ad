"""JSON round-trip of FTRunReport and serial/parallel figure equivalence."""

import numpy as np

from repro.campaign.execute import execute_cell
from repro.campaign.spec import RunSpec
from repro.engine import FTRunReport
from repro.experiments import SMALL_CONFIG, fig8_cells, run_fig8


def _demo_report() -> FTRunReport:
    cell = RunSpec(
        kind="ft",
        method="jacobi",
        scheme="lossy",
        num_processes=256,
        grid_n=8,
        seed=11,
    )
    return FTRunReport.from_dict(execute_cell(cell)["report"])


class TestFTRunReportRoundTrip:
    def test_to_from_json_is_stable(self):
        report = _demo_report()
        payload = report.to_json()
        rebuilt = FTRunReport.from_json(payload)
        assert rebuilt == report
        assert rebuilt.to_json() == payload

    def test_residual_trace_tuples_survive(self):
        report = _demo_report()
        rebuilt = FTRunReport.from_json(report.to_json())
        assert rebuilt.residual_trace == report.residual_trace
        assert all(isinstance(entry, tuple) for entry in rebuilt.residual_trace)

    def test_numpy_scalars_are_coerced(self):
        report = _demo_report()
        report.info["extra"] = np.float64(1.5)
        report.mean_compression_ratio = float(np.float64(report.mean_compression_ratio))
        data = report.to_dict()
        assert isinstance(data["info"]["extra"], float)
        FTRunReport.from_json(report.to_json())  # must not raise

    def test_derived_properties_survive(self):
        report = _demo_report()
        rebuilt = FTRunReport.from_json(report.to_json())
        assert rebuilt.extra_iterations == report.extra_iterations
        assert rebuilt.overhead_fraction == report.overhead_fraction


class TestFigureEquivalence:
    def test_fig8_serial_equals_parallel(self):
        config = SMALL_CONFIG.with_overrides(repetitions=2, process_counts=(256, 2048))
        serial = run_fig8(config, methods=("jacobi",), n_workers=1)
        parallel = run_fig8(config, methods=("jacobi",), n_workers=4)
        assert serial.baseline_iterations == parallel.baseline_iterations
        assert serial.lossy_iterations == parallel.lossy_iterations
        assert serial.num_failures == parallel.num_failures

    def test_fig8_cells_are_self_describing(self):
        config = SMALL_CONFIG.with_overrides(repetitions=2)
        cells = fig8_cells(config, methods=("jacobi", "cg"), process_counts=(256,))
        assert len(cells) == 4
        # Every cell round-trips through JSON to the same cache key.
        for cell in cells:
            assert RunSpec.from_dict(cell.to_dict()).cache_key() == cell.cache_key()
