"""The names ``benchmarks/e2e`` reaches into the package for must resolve.

``benchmarks/e2e/layers.py`` wraps ~30 public entry points by dotted name at
run time and ``hostinfo.py`` imports two more; the benchmark's own smoke
test (``--strict``: ``unresolved_layers == []``) notices a renamed or deleted
one only after a 15-second subprocess run, and reports an exit status.  This
module checks the same contract in milliseconds — read-only, no subprocess —
and names the offender, so a deletion PR learns which name the benchmark
pins before it runs the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _layer_targets():
    """``(module, attribute path)`` of everything ``layers.install`` wraps."""
    spec = importlib.util.spec_from_file_location("_e2e_layers", _E2E / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [(module, path) for _, module, path, _ in layers.TARGETS]
    # Patched outside the table, through wrappers of their own.
    targets += [
        ("repro.solvers", "IterativeSolver.solve"),
        ("repro.solvers", "IterativeSolver.__init__"),
    ]
    return targets


def _hostinfo_imports():
    """Every ``from repro... import name`` in ``hostinfo.py`` (parsed, not run:
    the file imports its sibling modules from the benchmark's own path)."""
    tree = ast.parse((_E2E / "hostinfo.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    ]


_LAYER_TARGETS = _layer_targets()
_HOSTINFO_IMPORTS = _hostinfo_imports()


def test_the_tables_are_where_this_test_looks_for_them():
    assert len(_LAYER_TARGETS) > 20
    assert ("repro.compression.sharded", "resolve_threads") in _HOSTINFO_IMPORTS
    assert ("repro.engine", "replay_enabled") in _HOSTINFO_IMPORTS


@pytest.mark.parametrize(
    "module, path",
    sorted(set(_LAYER_TARGETS + _HOSTINFO_IMPORTS)),
    ids=lambda value: value,
)
def test_benchmark_target_resolves_to_a_callable(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(obj, part), (
            f"{module}:{path} no longer resolves; benchmarks/e2e pins this name "
            "(BENCHMARK.json forbids editing it there)"
        )
        obj = getattr(obj, part)
    assert callable(obj), f"{module}:{path} is not callable"
