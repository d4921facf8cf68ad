"""Tests for the Poisson problem generators (the paper's Eq. (15))."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.kkt import kkt_system
from repro.sparse.matrices import random_spd
from repro.sparse.poisson import (
    PoissonProblem,
    _laplacian_nd,
    poisson_1d,
    poisson_2d,
    poisson_3d,
    poisson_system,
    stencil_grid,
)


class TestPoisson1D:
    def test_shape_and_pattern(self):
        A = poisson_1d(5)
        assert A.shape == (5, 5)
        assert A.nnz == 5 + 2 * 4

    def test_spd_sign_convention(self):
        A = poisson_1d(6).to_scipy().toarray()
        assert np.all(np.diag(A) == 2.0)
        eigs = np.linalg.eigvalsh(A)
        assert np.all(eigs > 0)

    def test_paper_sign_convention(self):
        A = poisson_1d(6, sign="paper").to_scipy().toarray()
        assert np.all(np.diag(A) == -2.0)

    def test_invalid_sign_raises(self):
        with pytest.raises(ValueError):
            poisson_1d(4, sign="bogus")

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            poisson_1d(0)


class TestPoisson3D:
    def test_shape(self):
        A = poisson_3d(4)
        assert A.shape == (64, 64)

    def test_diagonal_is_six(self):
        A = poisson_3d(4)
        assert np.allclose(A.diagonal(), 6.0)

    def test_paper_diagonal_is_minus_six(self):
        A = poisson_3d(4, sign="paper").to_scipy()
        assert np.allclose(A.diagonal(), -6.0)
        # Off-diagonal couplings are +1 as printed in Eq. (15).
        off = A - sp.diags(A.diagonal())
        assert np.allclose(off.data, 1.0)

    def test_symmetric(self):
        A = poisson_3d(5).to_scipy()
        assert (A - A.T).nnz == 0

    def test_interior_row_has_seven_entries(self):
        A = poisson_3d(5).to_scipy().tolil()
        # The centre point of the grid touches all 6 neighbours.
        center = 2 * 25 + 2 * 5 + 2
        assert len(A.rows[center]) == 7

    def test_positive_definite(self):
        A = poisson_3d(3).to_scipy().toarray()
        assert np.all(np.linalg.eigvalsh(A) > 0)


class TestPoisson2D:
    def test_five_point_stencil(self):
        A = poisson_2d(4)
        assert np.allclose(A.diagonal(), 4.0)
        assert A.shape == (16, 16)


class TestPoissonSystem:
    def test_returns_consistent_problem(self):
        prob = poisson_system(6)
        assert isinstance(prob, PoissonProblem)
        assert prob.size == 216
        assert prob.b.shape == (216,)
        assert np.allclose(prob.A @ prob.x_true, prob.b)

    def test_dims_one_and_two(self):
        assert poisson_system(10, dims=1).size == 10
        assert poisson_system(5, dims=2).size == 25

    def test_invalid_dims_raises(self):
        with pytest.raises(ValueError):
            poisson_system(4, dims=4)

    @pytest.mark.parametrize("field", ["sine", "gaussian", "random"])
    def test_fields(self, field):
        prob = poisson_system(5, field=field, seed=0)
        assert np.all(np.isfinite(prob.x_true))

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError):
            poisson_system(5, field="nope")

    def test_random_field_reproducible(self):
        a = poisson_system(5, field="random", seed=3).x_true
        b = poisson_system(5, field="random", seed=3).x_true
        assert np.array_equal(a, b)

    def test_nnz_property(self):
        prob = poisson_system(4)
        assert prob.nnz == prob.A.nnz


class TestStencilGrid:
    @pytest.mark.parametrize(
        "A, shape",
        [
            (poisson_1d(11), (11,)),
            (poisson_2d(7), (7, 7)),
            (poisson_3d(6), (6, 6, 6)),
            (poisson_3d(5, sign="paper"), (5, 5, 5)),
            (_laplacian_nd((4, 5, 6), "spd", np.float64), (4, 5, 6)),
            (_laplacian_nd((2, 3, 2, 4), "spd", np.float64), (2, 3, 2, 4)),
        ],
    )
    def test_recognises_grid_operators(self, A, shape):
        assert stencil_grid(A) == shape

    def test_size_one_axis_folds_away(self):
        # A length-1 axis couples nothing, so the grid has one axis fewer.
        assert stencil_grid(_laplacian_nd((3, 1, 4), "spd", np.float64)) == (3, 4)

    def test_other_formats_are_read_as_csr(self):
        assert stencil_grid(poisson_3d(4).to_scipy().tocoo()) == (4, 4, 4)

    def test_kkt_is_not_a_grid(self):
        assert stencil_grid(kkt_system(5, dims=3, seed=11).K) is None

    def test_random_spd_is_not_a_grid(self):
        assert stencil_grid(random_spd(120, density=0.05, seed=3)) is None

    def test_permuted_poisson_is_not_a_grid(self):
        A = poisson_3d(5).to_scipy()
        perm = np.random.default_rng(0).permutation(A.shape[0])
        assert stencil_grid(A[perm][:, perm]) is None

    def test_dense_input_is_not_read(self):
        assert stencil_grid(poisson_3d(4).to_scipy().toarray()) is None

    def test_band_crossing_axis_boundaries_is_not_a_grid(self):
        # Offsets {1, 2} form the divisor chain of an (N/2, 2) grid, but the
        # offset-1 coupling runs across every would-be row boundary.
        A = sp.diags(
            [np.ones(18), np.ones(19), np.full(20, 4.0), np.ones(19), np.ones(18)],
            offsets=[-2, -1, 0, 1, 2], format="csr",
        )
        assert stencil_grid(A) is None

    def test_diagonal_has_no_grid(self):
        assert stencil_grid(sp.identity(9, format="csr")) is None
