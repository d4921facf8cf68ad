"""Configuration of the paper-claim tests."""

import pytest

from repro.experiments.config import DEFAULT_CONFIG


@pytest.fixture(scope="session")
def paper_config():
    """``DEFAULT_CONFIG`` at six repetitions: the scale the claims are judged at."""
    return DEFAULT_CONFIG.with_overrides(repetitions=6)
