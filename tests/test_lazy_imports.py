"""Heavy SciPy submodules load only when the code that needs them runs.

``scipy.fft`` (with the ``scipy.special`` it pulls in), ``scipy.linalg`` and
``scipy.sparse.linalg`` are imported by the constructors or functions that
call them, never at module level (docs/architecture.md, "Imports").  Each
test runs in a fresh interpreter, since this process has long since loaded
all of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.fft", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src/`` importable; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_traditional_campaign_loads_no_heavy_submodule():
    out = _run_fresh(f"""
        import json, sys
        from repro.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            name="cold", kind="ft", methods=["jacobi", "cg", "gmres"],
            schemes=["traditional"], mttis=[1800.0], checkpoint_intervals=[150.0],
            repetitions=1, grid_n=6, seed=3,
        )
        result = run_campaign(spec)
        print(json.dumps({{
            "cells": len(result.results()),
            "loaded": [m for m in {HEAVY!r} if m in sys.modules],
        }}))
    """)
    outcome = json.loads(out.splitlines()[-1])
    assert outcome["cells"] == 3
    assert outcome["loaded"] == []


def test_deferred_importers_load_at_construction_and_work():
    out = _run_fresh("""
        import pickle
        import sys
        import numpy as np
        from repro.compression.zfp import ZFPCompressor
        from repro.precond import BlockJacobiPreconditioner
        from repro.solvers import GaussSeidelSolver, SORSolver, SSORSolver
        from repro.sparse import poisson_system
        from repro.sparse.analysis import (
            condition_number_estimate, jacobi_iteration_matrix, spectral_radius,
        )

        def built_loading(module, factory):
            assert module not in sys.modules, module
            built = factory()
            assert module in sys.modules, module
            return built

        data = np.sin(np.linspace(0.0, 6.0, 500)) + 2.0
        zfp = built_loading("scipy.fft", lambda: ZFPCompressor(1e-4))
        recon, _ = pickle.loads(pickle.dumps(zfp)).roundtrip(data)
        assert np.all(np.abs(recon - data) <= 1e-4 * np.abs(data) * (1 + 1e-8))

        problem = poisson_system(5, seed=1)
        M = built_loading("scipy.linalg", lambda: BlockJacobiPreconditioner(problem.A, 4))
        assert np.all(np.isfinite(M.solve(problem.b)))
        built_loading("scipy.sparse.linalg", lambda: GaussSeidelSolver(problem.A))
        for cls in (GaussSeidelSolver, SORSolver, SSORSolver):
            assert cls(problem.A, rtol=1e-6).solve(problem.b).converged
        assert 0.0 < spectral_radius(jacobi_iteration_matrix(problem.A)) < 1.0
        assert condition_number_estimate(problem.A) > 1.0
        print("ok")
    """)
    assert out.strip() == "ok"


@pytest.mark.parametrize(
    "name", ["ILU0Preconditioner", "IncompleteCholeskyPreconditioner", "SSORPreconditioner"]
)
def test_triangular_preconditioners_import_their_own_solver(name):
    """Each one imports ``scipy.sparse.linalg`` itself, when it is built."""
    out = _run_fresh(f"""
        import sys
        import numpy as np
        import repro.precond as precond
        from repro.sparse.poisson import poisson_system

        problem = poisson_system(5, seed=2)
        assert "scipy.sparse.linalg" not in sys.modules
        M = precond.{name}(problem.A)
        assert "scipy.sparse.linalg" in sys.modules
        z = M.solve(problem.b)
        assert np.all(np.isfinite(z)) and np.any(z != 0.0)
        print("ok")
    """)
    assert out.strip() == "ok"
