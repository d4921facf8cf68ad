"""The Poisson builders' CSR arrays and matvec against SciPy's.

:class:`~repro.sparse.csr.CSRMatrix` replaces ``scipy.sparse`` on the cell
path, so everything downstream (solver iterates, fingerprints, checkpoint
payloads) depends on two promises: the builders emit exactly the arrays the
old ``sp.kron`` assembly did, and ``A @ x`` has exactly the bits of SciPy's
``csr_matvec`` for every input, including signed zeros, subnormals,
infinities and NaN.
"""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse._sparsetools import csr_matvec

from repro.sparse import CSRMatrix
from repro.sparse.poisson import _laplacian_nd, poisson_1d, poisson_2d, poisson_3d

#: Examples of the matvec property per run; fixed, never lower it.  A profile
#: with more (``--hypothesis-profile=deep``, tests/conftest.py) raises it.
MAX_EXAMPLES = 100
EXAMPLES = max(MAX_EXAMPLES, settings.default.max_examples)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
           np.inf, -np.inf, np.nan, -np.nan]


def _diags_reference(m, s=1.0, dtype=np.float64):
    """The old ``poisson_1d``: ``tridiag(-s, 2 s, -s)`` through ``sp.diags``."""
    main = np.full(m, 2.0 * s, dtype=dtype)
    off = np.full(m - 1, -1.0 * s, dtype=dtype)
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csr", dtype=dtype)


def _kron_reference(shape, sign, dtype=np.float64):
    """The ``scipy.sparse`` assembly the builders replaced: ``sp.diags`` in 1-D,
    the Kronecker sum of 1-D operators above that."""
    s = {"spd": 1.0, "paper": -1.0}[sign]
    if len(shape) == 1:
        return _diags_reference(shape[0], s, dtype)
    operator = None
    for axis, m in enumerate(shape):
        before = sp.identity(int(np.prod(shape[:axis])) or 1, format="csr", dtype=dtype)
        after = sp.identity(int(np.prod(shape[axis + 1:])) or 1, format="csr", dtype=dtype)
        term = sp.kron(sp.kron(before, _diags_reference(m, dtype=dtype)), after, format="csr")
        operator = term if operator is None else operator + term
    return (s * operator).tocsr()


def _same_array(left, right):
    return left.dtype == right.dtype and left.shape == right.shape \
        and left.tobytes() == right.tobytes()


@pytest.mark.parametrize("sign", ["spd", "paper"])
@pytest.mark.parametrize("dims, build", [(1, poisson_1d), (2, poisson_2d), (3, poisson_3d)])
@pytest.mark.parametrize("n", range(1, 7))
def test_builders_emit_the_kron_arrays(n, dims, build, sign):
    A, ref = build(n, sign=sign), _kron_reference((n,) * dims, sign)
    assert isinstance(A, CSRMatrix) and A.grid == (n,) * dims
    assert A.shape == ref.shape and A.nnz == ref.nnz and A.dtype == ref.dtype
    assert _same_array(A.indptr, ref.indptr)
    assert _same_array(A.indices, ref.indices)
    assert _same_array(A.data, ref.data)
    assert _same_array(A.diagonal(), ref.diagonal())


def test_float32_builder_and_scipy_round_trip():
    A = poisson_3d(4, sign="paper", dtype=np.float32)
    ref = _kron_reference((4, 4, 4), "paper", np.float32)
    assert _same_array(A.data, ref.data)
    back = A.to_scipy()
    assert isinstance(back, sp.csr_matrix) and (back != ref).nnz == 0
    assert back.data is not A.data  # SciPy's algebra cannot write into A
    assert A.tocsr() is A


def test_pickles():
    A = poisson_3d(5, sign="paper")
    B = pickle.loads(pickle.dumps(A))
    x = np.linspace(-1.0, 1.0, A.shape[0])
    assert B.grid == A.grid and _same_array(B.data, A.data)
    assert _same_array(B @ x, A @ x)


def test_rejects_a_vector_of_the_wrong_shape():
    with pytest.raises(ValueError, match="cannot multiply"):
        poisson_2d(3) @ np.zeros(8)


@st.composite
def grids_and_vectors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    sign = draw(st.sampled_from(["spd", "paper"]))
    n = int(np.prod(shape))
    x = draw(hnp.arrays(
        np.float64, n,
        elements=st.one_of(st.floats(width=64), st.sampled_from(SPECIAL)),
    ))
    return shape, sign, x


@given(case=grids_and_vectors())
@settings(max_examples=EXAMPLES, deadline=None)
def test_matvec_is_bitwise_csr_matvec(case):
    shape, sign, x = case
    A = _laplacian_nd(shape, sign, np.float64)
    n = A.shape[0]
    expected = np.zeros(n)
    csr_matvec(n, n, A.indptr, A.indices, A.data, x, expected)
    assert _same_array(A @ x, expected)
