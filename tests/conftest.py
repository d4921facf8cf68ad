"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.sparse import poisson_system, kkt_system

#: ``--hypothesis-profile=deep``: 20x the 100 examples of the CSR matvec
#: property in ``tests/sparse/test_csr.py``.  CI runs ``tests/sparse`` with it
#: once.
settings.register_profile("deep", max_examples=20 * 100)


@pytest.fixture(scope="session")
def poisson_small():
    """A small 3D Poisson problem (8^3 unknowns) shared across tests."""
    return poisson_system(8, seed=42)


@pytest.fixture(scope="session")
def poisson_medium():
    """A medium 3D Poisson problem (12^3 unknowns) for solver tests."""
    return poisson_system(12, seed=7)


@pytest.fixture(scope="session")
def kkt_small():
    """A small synthetic KKT (saddle-point) problem."""
    return kkt_system(5, dims=3, seed=11)


@pytest.fixture
def rng():
    """A deterministic NumPy random generator."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def smooth_vector():
    """A smooth, strictly nonzero vector typical of a converging solution."""
    t = np.linspace(0.0, 1.0, 20000)
    return np.sin(2 * np.pi * t) + 0.3 * np.cos(6 * np.pi * t) + 1.7


@pytest.fixture(scope="session")
def rough_vector():
    """A rough random vector (hard case for lossy compression)."""
    return np.random.default_rng(99).standard_normal(5000)
