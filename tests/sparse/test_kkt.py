"""Tests for the synthetic KKT (saddle-point) generator."""

import numpy as np
import pytest

from repro.sparse.kkt import kkt_system


class TestKKTSystem:
    def test_sizes(self):
        prob = kkt_system(4, dims=2, seed=0)
        assert prob.n_primal == 16
        assert prob.size == prob.n_primal + prob.n_dual
        assert prob.K.shape == (prob.size, prob.size)

    def test_symmetric(self):
        prob = kkt_system(4, dims=2, seed=1)
        assert abs(prob.K - prob.K.T).max() <= 1e-10

    def test_indefinite(self):
        prob = kkt_system(5, dims=2, seed=2)
        eigs = np.linalg.eigvalsh(prob.K.toarray())
        assert eigs[0] < 0 < eigs[-1]

    def test_rhs_normalised(self):
        prob = kkt_system(4, dims=2, seed=3)
        assert np.isclose(np.linalg.norm(prob.b), 1.0)

    def test_constraint_fraction_controls_dual_size(self):
        small = kkt_system(4, dims=2, constraint_fraction=0.25, seed=0)
        large = kkt_system(4, dims=2, constraint_fraction=1.0, seed=0)
        assert small.n_dual < large.n_dual

    def test_reproducible(self):
        a = kkt_system(4, dims=2, seed=9)
        b = kkt_system(4, dims=2, seed=9)
        assert np.allclose(a.K.toarray(), b.K.toarray())
        assert np.allclose(a.b, b.b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"n": 4, "dims": 4},
            {"n": 4, "regularization": -1.0},
            {"n": 4, "constraint_fraction": 0.0},
            {"n": 4, "constraint_fraction": 1.5},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            kkt_system(**kwargs)

    def test_3d_variant(self):
        prob = kkt_system(3, dims=3, seed=0)
        assert prob.n_primal == 27
