"""Tests for the cluster time model."""

import pytest

from repro.cluster.machine import (
    ClusterModel,
    MachineSpec,
    PAPER_BASELINE_ITERATIONS,
    PAPER_BASELINE_SECONDS,
    PAPER_ITERATION_SECONDS,
)

_GIB = 1024.0**3


class TestCalibrationTables:
    def test_iteration_seconds_consistent_with_baselines(self):
        for method in ("jacobi", "gmres", "cg"):
            assert PAPER_ITERATION_SECONDS[method] == pytest.approx(
                PAPER_BASELINE_SECONDS[method] / PAPER_BASELINE_ITERATIONS[method]
            )

    def test_gmres_iteration_about_1_2_seconds(self):
        # The paper's worked Theorem-1 example quotes Tit ~ 1.2 s for GMRES.
        assert PAPER_ITERATION_SECONDS["gmres"] == pytest.approx(1.2, abs=0.1)


class TestMachineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(nodes=0)
        with pytest.raises(ValueError):
            MachineSpec(compress_bandwidth_per_core=0.0)


class TestClusterModel:
    def test_traditional_checkpoint_matches_anchor(self):
        cluster = ClusterModel(num_processes=2048)
        unc = 78.8 * _GIB
        assert cluster.checkpoint_seconds(unc, unc, compressed=False) == pytest.approx(
            120.0, rel=0.05
        )

    def test_compression_stage_adds_modest_time(self):
        cluster = ClusterModel(num_processes=2048)
        unc = 78.8 * _GIB
        with_compression = cluster.checkpoint_seconds(unc, unc / 30.0)
        without = cluster.checkpoint_seconds(unc, unc / 30.0, compressed=False)
        # Compressing ~80 GB on 2,048 cores takes about half a second.
        assert 0.0 < with_compression - without < 2.0

    def test_lossy_checkpoint_much_cheaper_than_traditional(self):
        cluster = ClusterModel(num_processes=2048)
        unc = 78.8 * _GIB
        lossy = cluster.checkpoint_seconds(unc, unc / 30.0)
        traditional = cluster.checkpoint_seconds(unc, unc, compressed=False)
        assert lossy < 0.3 * traditional

    def test_checkpoint_time_grows_with_scale_weak_scaling(self):
        times = []
        for procs in (256, 1024, 2048):
            cluster = ClusterModel(num_processes=procs)
            unc = 78.8 * _GIB * procs / 2048.0
            times.append(cluster.checkpoint_seconds(unc, unc, compressed=False))
        assert times[0] < times[1] < times[2]

    def test_recovery_includes_static_rebuild(self):
        cluster = ClusterModel(num_processes=2048)
        unc = 78.8 * _GIB
        base = cluster.recovery_seconds(unc, unc / 30.0)
        with_static = cluster.recovery_seconds(unc, unc / 30.0, static_bytes=unc * 10)
        assert with_static > base

    def test_calibrated_iteration_time(self):
        cluster = ClusterModel()
        # A local run with 100 iterations stretches to the paper's 3,000 s Jacobi baseline.
        assert cluster.calibrated_iteration_time("jacobi", 100) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            cluster.calibrated_iteration_time("jacobi", 0)
        with pytest.raises(KeyError):
            cluster.calibrated_iteration_time("nope", 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterModel(num_processes=0)
