"""Tests for the random sparse-matrix generators."""

import numpy as np
import pytest

from repro.sparse.matrices import diagonally_dominant, random_spd


class TestRandomSPD:
    def test_symmetric_positive_definite(self):
        A = random_spd(40, density=0.1, seed=0)
        assert abs(A - A.T).max() <= 1e-10
        eigs = np.linalg.eigvalsh(A.toarray())
        assert np.all(eigs > 0)

    def test_reproducible(self):
        a = random_spd(30, seed=5).toarray()
        b = random_spd(30, seed=5).toarray()
        assert np.allclose(a, b)

    @pytest.mark.parametrize("condition", [10.0, 100.0, 1000.0])
    def test_condition_number_is_close_to_requested(self, condition):
        eigs = np.linalg.eigvalsh(random_spd(40, density=0.1, condition=condition, seed=0).toarray())
        assert eigs[-1] / eigs[0] == pytest.approx(condition, rel=0.05)

    @pytest.mark.parametrize("kwargs", [{"density": 0.0}, {"density": 1.5}, {"condition": 0.5}])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            random_spd(10, **kwargs)


class TestDiagonallyDominant:
    def test_is_strictly_dominant(self):
        A = diagonally_dominant(50, density=0.05, seed=1)
        diag = np.abs(A.diagonal())
        off_diag_sums = np.asarray(abs(A).sum(axis=1)).ravel() - diag
        assert np.all(diag > off_diag_sums)

    def test_symmetric_option(self):
        A = diagonally_dominant(30, symmetric=True, seed=2)
        assert abs(A - A.T).max() <= 1e-10

    def test_nonsymmetric_option_is_still_dominant(self):
        A = diagonally_dominant(30, density=0.2, symmetric=False, dominance=3.0, seed=2)
        assert abs(A - A.T).max() > 0
        diag = np.abs(A.diagonal())
        off_diag_sums = np.asarray(abs(A).sum(axis=1)).ravel() - diag
        assert np.all(diag >= 3.0 * off_diag_sums * (1.0 - 1e-12))

    def test_reproducible(self):
        a = diagonally_dominant(30, density=0.1, seed=7)
        b = diagonally_dominant(30, density=0.1, seed=7)
        assert abs(a - b).max() == 0.0

    def test_dominance_must_exceed_one(self):
        with pytest.raises(ValueError):
            diagonally_dominant(10, dominance=1.0)


@pytest.mark.parametrize("generator", [random_spd, diagonally_dominant])
def test_generators_reject_empty_size(generator):
    with pytest.raises(ValueError, match="n must be"):
        generator(0)
