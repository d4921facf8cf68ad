"""Tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.validation import (
    check_nonnegative,
    check_positive,
    check_square_matrix,
    check_vector,
)


class TestScalarChecks:
    def test_positive_accepts(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative(0.0, "x") == 0.0

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative(-0.1, "x")


class TestVectorCheck:
    def test_converts_list(self):
        out = check_vector([1, 2, 3], "v")
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_vector(np.zeros((2, 2)), "v")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_vector([], "v")


class TestSquareMatrixCheck:
    def test_accepts_sparse(self):
        A = sp.identity(4, format="coo")
        out = check_square_matrix(A)
        assert sp.issparse(out) and out.format == "csr"

    def test_accepts_dense(self):
        out = check_square_matrix(np.eye(3))
        assert out.shape == (3, 3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_square_matrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_square_matrix(sp.csr_matrix((0, 0)))
