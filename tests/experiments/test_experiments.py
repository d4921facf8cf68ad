"""Structural and shape tests for the experiment harness (one per paper artefact)."""

import numpy as np
import pytest

from repro.experiments import (
    SMALL_CONFIG,
    fig1_table,
    fig2_table,
    fig3_table,
    fig456_table,
    fig7_table,
    fig8_table,
    fig9_table,
    fig10_table,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig456,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table3,
    table3_table,
)

CFG = SMALL_CONFIG


class TestFig1:
    def test_overhead_surface_shape_and_monotonicity(self):
        result = run_fig1()
        # The paper reads ~40% at hourly failures and Tckp = 120 s.
        assert 0.3 < result.at(1.0, 120.0) < 0.5
        # Overhead grows along both axes.
        row = result.overhead_fraction[2]
        assert all(np.diff(row) > 0)
        column = [r[3] for r in result.overhead_fraction]
        assert all(np.diff(column) > 0)
        # Monotone along every row, and the far corners ordered.
        for row in result.overhead_fraction:
            assert all(b >= a for a, b in zip(row, row[1:]))
        assert result.at(3.5, 140.0) > result.at(0.25, 10.0)

    def test_table_renders(self):
        assert "Figure 1" in fig1_table(run_fig1())


class TestFig2:
    def test_cg_delay_in_paper_range(self):
        result = run_fig2(CFG, trials=6)
        for eb in result.error_bounds:
            frac = result.mean_extra_fraction(eb)
            assert 0.0 <= frac <= 0.6
        # The 1e-3 bound cannot be better than the 1e-6 bound by a wide margin.
        assert result.mean_extra_fraction(1e-6) <= result.mean_extra_fraction(1e-3) + 0.1
        assert "Figure 2" in fig2_table(result)


class TestFig3:
    def test_kkt_scaling(self):
        result = run_fig3(CFG)
        assert result.converged
        assert result.iterations > 10
        times = [result.modeled_seconds[p] for p in result.process_counts]
        assert all(np.diff(times) < 0)  # strong scaling: more processes, less time
        assert "Figure 3" in fig3_table(result)


class TestTable3:
    def test_checkpoint_sizes(self):
        result = run_table3(CFG)
        for procs in result.process_counts:
            for method in result.methods:
                trad = result.size_mb(procs, method, "traditional")
                lossless = result.size_mb(procs, method, "lossless")
                lossy = result.size_mb(procs, method, "lossy")
                assert lossy < lossless <= trad * 1.01
        # CG checkpoints two vectors under exact schemes (twice the size).
        assert result.size_mb(2048, "cg", "traditional") == pytest.approx(
            2 * result.size_mb(2048, "gmres", "traditional"), rel=1e-6
        )
        # Traditional per-process size at 2048 processes ~ 38 MB (Table 3).
        assert 30 < result.size_mb(2048, "jacobi", "traditional") < 45
        assert "Table 3" in table3_table(result)

    def test_bicgstab_sizes_come_from_measured_payload(self):
        """BiCGSTAB-exact bytes price 5 per-variable vectors + scalars, not
        ``vector_bytes * dynamic_vector_count / ratio(x)``."""
        result = run_table3(CFG, methods=("bicgstab", "jacobi"))
        for scheme in ("traditional", "lossless"):
            ratios = result.variable_ratios[("bicgstab", scheme)]
            assert set(ratios) == {"x", "r", "r_hat", "p", "v"}
        # Five exactly-stored vectors ~ five single-vector Jacobi payloads.
        assert result.size_mb(2048, "bicgstab", "traditional") == pytest.approx(
            5 * result.size_mb(2048, "jacobi", "traditional"), rel=1e-3
        )
        # Under lossless compression the five vectors compress differently:
        # the measured payload diverges from the old single-ratio model.
        from repro.core.scale import paper_scale

        scale = paper_scale(2048)
        x_ratio = result.ratios[("bicgstab", "lossless")]
        modeled_mb = scale.vector_bytes * 5 / x_ratio / 2048 / 1024**2
        measured_mb = result.size_mb(2048, "bicgstab", "lossless")
        assert measured_mb != pytest.approx(modeled_mb, rel=1e-6)
        # Lossy stores only the iterate.
        assert set(result.variable_ratios[("bicgstab", "lossy")]) == {"x"}


class TestFig456:
    @pytest.mark.parametrize("method", ["jacobi", "gmres", "cg"])
    def test_checkpoint_recovery_times(self, method):
        result = run_fig456(CFG, method=method)
        for procs in result.process_counts:
            assert result.checkpoint(procs, "lossy") < result.checkpoint(procs, "traditional")
            assert result.recovery(procs, "lossy") < result.recovery(procs, "traditional")
        # Times grow with scale (weak scaling at constant PFS bandwidth).
        trad = [result.checkpoint(p, "traditional") for p in result.process_counts]
        assert all(np.diff(trad) > 0)
        assert "mean checkpoint/recovery" in fig456_table(result)

    def test_traditional_checkpoint_anchor_at_2048(self):
        result = run_fig456(CFG, method="jacobi", process_counts=[2048])
        assert result.checkpoint(2048, "traditional") == pytest.approx(120.0, rel=0.1)


class TestFig7:
    def test_expected_overheads(self):
        result = run_fig7(CFG)
        for procs in result.process_counts:
            # Jacobi and GMRES lossy always beat traditional in expectation.
            for method in ("jacobi", "gmres"):
                assert result.value(1.0, procs, method, "lossy") < result.value(
                    1.0, procs, method, "traditional"
                )
            # Lower failure rate means lower overhead.
            assert result.value(3.0, procs, "jacobi", "traditional") < result.value(
                1.0, procs, "jacobi", "traditional"
            )
        # The paper's N' inputs: ~6 for Jacobi, 0 for GMRES, 594 for CG.
        assert result.extra_iterations["gmres"] == 0.0
        assert 0 < result.extra_iterations["jacobi"] < 20
        assert result.extra_iterations["cg"] == pytest.approx(594, rel=0.01)
        assert "Figure 7" in fig7_table(result)


class TestFig8:
    def test_convergence_iterations(self):
        result = run_fig8(CFG.with_overrides(repetitions=2))
        for method in result.methods:
            for procs in result.process_counts:
                assert result.lossy_iterations[(method, procs)] >= 1
        # Jacobi shows (essentially) no delay under lossy checkpointing.
        for procs in result.process_counts:
            assert result.delay_fraction("jacobi", procs) <= 0.05
        assert "Figure 8" in fig8_table(result)


class TestFig9:
    def test_trajectories(self):
        result = run_fig9(CFG)
        assert set(result.traces) == {"no failure", "1 lossy restart", "2 lossy restarts"}
        # Jacobi recovers with essentially no extra iterations (paper's Fig. 9).
        assert abs(result.extra_iterations("1 lossy restart")) <= 3
        assert abs(result.extra_iterations("2 lossy restarts")) <= 5
        # All traces end below the failure-free final residual times a small factor.
        final_ff = result.traces["no failure"][-1][1]
        for label in ("1 lossy restart", "2 lossy restarts"):
            assert result.traces[label][-1][1] <= 2.0 * final_ff
        assert "Figure 9" in fig9_table(result)


class TestFig10:
    def test_structure_and_expected_model(self):
        result = run_fig10(CFG.with_overrides(repetitions=2))
        for method in result.methods:
            for scheme in ("traditional", "lossless", "lossy"):
                assert result.experimental[(method, scheme)] >= 0.0
                assert result.expected[(method, scheme)] >= 0.0
            # The model predicts lossy beating traditional for Jacobi (N' ~ 0).
            # GMRES and CG are excluded here because at the tiny SMALL_CONFIG
            # problem size the *measured* extra iterations per failure are a
            # large fraction of the short run; the full-size behaviour is
            # covered by the Fig. 7 test and the benchmarks.
            if method == "jacobi":
                assert result.expected[(method, "lossy")] < result.expected[
                    (method, "traditional")
                ]
            # Lossy checkpoints are much cheaper than traditional ones.
            assert result.checkpoint_seconds[(method, "lossy")] < result.checkpoint_seconds[
                (method, "traditional")
            ]
        assert "Figure 10" in fig10_table(result)
