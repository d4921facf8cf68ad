"""Tests for checkpointing schemes and paper-scale descriptions."""

import pytest

from repro.axes import METHODS
from repro.compression.base import Compressor
from repro.core.scale import ExperimentScale, PAPER_WEAK_SCALING, paper_scale
from repro.core.schemes import CheckpointingScheme


class TestSchemes:
    def test_traditional_uses_identity(self):
        scheme = CheckpointingScheme.traditional()
        assert scheme.compressor().name in ("none", "identity")
        assert not scheme.lossy
        assert not scheme.uses_compression

    def test_lossless_uses_zlib_by_default(self):
        scheme = CheckpointingScheme.lossless()
        assert scheme.compressor().name == "zlib"
        assert scheme.uses_compression

    def test_lossless_level_and_description(self):
        scheme = CheckpointingScheme.lossless(level=6)
        assert scheme.compressor().level == 6
        assert scheme.description == "lossless (zlib) compressed checkpoints"

    def test_lossy_sz_default(self):
        scheme = CheckpointingScheme.lossy(1e-4)
        assert scheme.lossy
        assert scheme.compressor().name == "sz"
        assert not scheme.checkpoint_krylov_state

    def test_lossy_zfp_variant(self):
        scheme = CheckpointingScheme.lossy(1e-4, compressor="zfp")
        assert scheme.compressor().name == "zfp"

    def test_lossy_invalid_compressor(self):
        with pytest.raises(ValueError):
            CheckpointingScheme.lossy(1e-4, compressor="jpeg")

    def test_direct_construction_needs_a_real_bool_for_lossy(self):
        # Regression: the lossy() classmethod shadows the field default, so
        # omitting lossy= used to yield the bound method — a truthy "lossy".
        factory = CheckpointingScheme.traditional().compressor_factory
        with pytest.raises(TypeError, match="lossy"):
            CheckpointingScheme(name="custom", compressor_factory=factory)
        with pytest.raises(TypeError, match="lossy"):
            CheckpointingScheme(name="custom", compressor_factory=factory, lossy=1)
        scheme = CheckpointingScheme(
            name="custom", compressor_factory=factory, lossy=False
        )
        assert scheme.lossy is False

    def test_compressor_cached(self):
        scheme = CheckpointingScheme.lossy(1e-4)
        assert scheme.compressor() is scheme.compressor()

    def test_dynamic_vector_count(self):
        assert CheckpointingScheme.traditional().dynamic_vector_count("cg") == 2
        assert CheckpointingScheme.traditional().dynamic_vector_count("jacobi") == 1
        assert CheckpointingScheme.lossy(1e-4).dynamic_vector_count("cg") == 1
        assert CheckpointingScheme.lossless().dynamic_vector_count("gmres") == 1

    def test_dynamic_vector_count_derives_from_declared_state(self):
        # BiCGSTAB's exact checkpoint stores x + r/r_hat/p/v (its full
        # recurrence), not the hard-coded 2 the old table claimed.
        assert CheckpointingScheme.traditional().dynamic_vector_count("bicgstab") == 5
        assert CheckpointingScheme.lossy(1e-4).dynamic_vector_count("bicgstab") == 1
        # ``kkt`` runs GMRES, so it takes GMRES's declaration.
        assert CheckpointingScheme.traditional().dynamic_vector_count("kkt") == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_dynamic_vector_count_of_every_campaign_method(self, method):
        exact = {"jacobi": 1, "gmres": 1, "cg": 2, "bicgstab": 5, "kkt": 1}[method]
        assert CheckpointingScheme.traditional().dynamic_vector_count(method) == exact
        assert CheckpointingScheme.lossless().dynamic_vector_count(method) == exact
        assert CheckpointingScheme.lossy(1e-4).dynamic_vector_count(method) == 1

    @pytest.mark.parametrize("method", ["cgg", "sor"])
    @pytest.mark.parametrize(
        "scheme",
        [CheckpointingScheme.lossless(), CheckpointingScheme.lossy(1e-4)],
        ids=["lossless", "lossy"],
    )
    def test_dynamic_vector_count_rejects_unknown_methods(self, scheme, method):
        # A misspelt method used to count as one vector under every scheme.
        with pytest.raises(KeyError):
            scheme.dynamic_vector_count(method)

    def test_dynamic_vector_count_accepts_solver_instances(self, poisson_small):
        from repro.solvers import BiCGStabSolver, CGSolver, JacobiSolver

        scheme = CheckpointingScheme.traditional()
        assert scheme.dynamic_vector_count(CGSolver(poisson_small.A)) == 2
        assert scheme.dynamic_vector_count(BiCGStabSolver(poisson_small.A)) == 5
        assert scheme.dynamic_vector_count(JacobiSolver(poisson_small.A)) == 1
        # Name-based and instance-based lookups agree (the engine passes the
        # solver, the table-3 model passes the name).
        for name, cls in (("cg", CGSolver), ("bicgstab", BiCGStabSolver)):
            assert scheme.dynamic_vector_count(name) == scheme.dynamic_vector_count(
                cls(poisson_small.A)
            )

    def test_adaptive_policy_changes_bound(self):
        scheme = CheckpointingScheme.lossy(1e-4, adaptive=True)
        loose = scheme.checkpoint_compressor(residual_norm=1e-1, b_norm=1.0)
        tight = scheme.checkpoint_compressor(residual_norm=1e-6, b_norm=1.0)
        assert isinstance(loose, Compressor) and isinstance(tight, Compressor)
        assert loose.error_bound.value > tight.error_bound.value

    def test_non_adaptive_ignores_residual(self):
        scheme = CheckpointingScheme.lossy(1e-4)
        comp = scheme.checkpoint_compressor(residual_norm=1e-1, b_norm=1.0)
        assert comp.error_bound.value == pytest.approx(1e-4)


class TestExperimentScale:
    def test_paper_table3_sizes(self):
        scale = paper_scale(2048)
        assert scale.grid_n == 2160
        # 2160^3 doubles ~ 75 GiB; per process ~ 37.5 MB (Table 3 reports ~39 MB).
        per_process_mb = scale.vector_bytes / scale.num_processes / 1024**2
        assert 30.0 < per_process_mb < 45.0

    def test_all_paper_scales_defined(self):
        for procs in (256, 512, 768, 1024, 1280, 1536, 1792, 2048):
            assert procs in PAPER_WEAK_SCALING
            assert paper_scale(procs).num_processes == procs

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            paper_scale(4096)

    def test_static_bytes_multiple_of_vector(self):
        scale = ExperimentScale(num_processes=128, grid_n=100, static_multiplier=10.0)
        assert scale.static_bytes == pytest.approx(10.0 * scale.vector_bytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(num_processes=0, grid_n=10)
        with pytest.raises(ValueError):
            ExperimentScale(num_processes=1, grid_n=0)
        with pytest.raises(ValueError):
            ExperimentScale(num_processes=1, grid_n=10, static_multiplier=-1)
