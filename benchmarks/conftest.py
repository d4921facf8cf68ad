"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper (see README.md's
"Paper figure map") with the DEFAULT experiment configuration, asserts the
qualitative claims (who wins, roughly by how much, where crossovers fall) and
prints the corresponding text table so `pytest benchmarks/ --benchmark-only -s`
reproduces the whole evaluation section in one go.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

from repro.experiments.config import DEFAULT_CONFIG  # noqa: E402


@pytest.fixture(scope="session")
def bench_config():
    """The configuration shared by all benchmark runs."""
    return DEFAULT_CONFIG.with_overrides(repetitions=6)


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
