"""Heavy modules load only when the code that needs them runs.

The campaign front end (``cli``, ``spec``, ``cache``, ``report``,
``executor``) imports no numerics: a rerun served from the cache loads neither
NumPy nor SciPy, and a run with pending cells loads the execution stack once,
before any worker pool forks.  A cell on a Poisson problem loads no SciPy at
all, and no figure module: ``scipy.fft`` (ZFP), ``scipy.sparse`` (KKT) and
``scipy.sparse.linalg`` (IC(0)) are imported by the code that calls them,
never at module level (docs/architecture.md, "Imports").  Each test runs in a
fresh interpreter, since this process has long since loaded all of them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.fft", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")
#: What the campaign front end must not load.
NUMERICS = (
    "numpy", "scipy", "repro.engine", "repro.compression", "repro.solvers",
    "repro.sparse", "multiprocessing",
)
#: What a run with pending cells has loaded before its worker pool forks
#: (and SciPy is not among it).
STACK = (
    "numpy", "repro.engine.core", "repro.solvers", "repro.sparse",
    "repro.experiments.characterize",
)


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


def _small_spec(tmp_path) -> Path:
    path = tmp_path / "spec.json"
    path.write_text(CampaignSpec(
        name="small", kind="ft", methods=["jacobi", "cg"], schemes=["traditional"],
        mttis=[1800.0], checkpoint_intervals=[150.0], repetitions=2, grid_n=6, seed=5,
    ).to_json())
    return path


def _cli_run(spec: Path, cache: Path, *extra: str) -> dict:
    """One ``cli.main`` run in a fresh interpreter: its summary line and
    which of :data:`NUMERICS` it left loaded."""
    out = _run_fresh(f"""
        import json, sys
        from repro.campaign import cli

        cli.main(["--spec", {str(spec)!r}, "--cache-dir", {str(cache)!r},
                  "--quiet", *{list(extra)!r}])
        print(json.dumps([m for m in {NUMERICS!r} if m in sys.modules]))
    """)
    lines = out.splitlines()
    summary = next(line for line in lines if line.startswith("4 cells: "))
    return {"summary": summary, "loaded": json.loads(lines[-1])}


def test_campaign_front_end_imports_no_numerics():
    out = _run_fresh(f"""
        import json, sys
        import repro.campaign.cli

        print(json.dumps([m for m in {NUMERICS!r} if m in sys.modules]))
    """)
    assert json.loads(out) == []


def test_cached_rerun_loads_no_numerics_and_writes_the_cold_report(tmp_path):
    spec, cache = _small_spec(tmp_path), tmp_path / "cache"
    cold = _cli_run(spec, cache, "--json", str(tmp_path / "cold.json"))
    warm = _cli_run(spec, cache, "--json", str(tmp_path / "warm.json"))
    assert cold["summary"].startswith("4 cells: 4 executed, 0 from cache")
    assert "numpy" in cold["loaded"]
    assert warm["summary"].startswith("4 cells: 0 executed, 4 from cache")
    assert warm["loaded"] == []
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()


def test_pool_parent_holds_the_execution_stack_before_forking(tmp_path):
    """Workers inherit the stack from the parent instead of importing it."""
    spec, cache = _small_spec(tmp_path), tmp_path / "cache"
    out = _run_fresh(f"""
        import concurrent.futures, json, sys
        from concurrent.futures.process import ProcessPoolExecutor

        held = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                held.append([m for m in {STACK!r} if m in sys.modules])
                held.append([m for m in sys.modules if m.split(".")[0] == "scipy"])
                super().__init__(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Recording
        from repro.campaign import cli

        cli.main(["--spec", {str(spec)!r}, "--cache-dir", {str(cache)!r},
                  "--quiet", "--workers", "2"])
        print(json.dumps(held))
    """)
    assert json.loads(out.splitlines()[-1]) == [list(STACK), []]


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


def test_poisson_cells_load_no_scipy_and_kkt_and_zfp_cells_load_their_own():
    out = _run_fresh("""
        import json, sys
        from repro.campaign import CampaignSpec, RunSpec, run_campaign
        from repro.experiments.config import SMALL_CONFIG, campaign_fields

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                          or m.startswith("repro.experiments.fig"))

        def cells(**fields):
            spec = CampaignSpec(
                name="cold", kind="ft", methods=["cg"], mttis=[1800.0],
                checkpoint_intervals=[150.0], repetitions=1, grid_n=6, seed=3, **fields,
            )
            return len(run_campaign(spec).results())

        outcome = {"poisson": cells(schemes=["traditional", "lossless", "lossy"],
                                    compressors=["sz"])}
        outcome["poisson_loaded"] = loaded()
        outcome["zfp"] = cells(schemes=["lossy"], compressors=["zfp"])
        outcome["zfp_loaded_fft"] = "scipy.fft" in sys.modules
        assert "scipy.sparse" not in sys.modules
        kkt = RunSpec(kind="solve", scheme="traditional", **campaign_fields(SMALL_CONFIG, "kkt"))
        outcome["kkt_converged"] = run_campaign([kkt]).results()[0]["converged"]
        outcome["kkt_loaded_sparse"] = "scipy.sparse" in sys.modules
        print(json.dumps(outcome))
    """)
    assert json.loads(out.splitlines()[-1]) == {
        "poisson": 3, "poisson_loaded": [],
        "zfp": 1, "zfp_loaded_fft": True,
        "kkt_converged": True, "kkt_loaded_sparse": True,
    }


def test_deferred_importers_load_at_construction_and_work():
    out = _run_fresh("""
        import pickle
        import sys
        import numpy as np
        from repro.compression.zfp import ZFPCompressor
        from repro.sparse import poisson_system
        from repro.sparse.analysis import jacobi_iteration_matrix, spectral_radius

        def built_loading(module, factory):
            assert module not in sys.modules, module
            built = factory()
            assert module in sys.modules, module
            return built

        data = np.sin(np.linspace(0.0, 6.0, 500)) + 2.0
        zfp = built_loading("scipy.fft", lambda: ZFPCompressor(1e-4))
        zfp = pickle.loads(pickle.dumps(zfp))
        recon = zfp.decompress(zfp.compress(data))
        assert np.all(np.abs(recon - data) <= 1e-4 * np.abs(data) * (1 + 1e-8))

        problem = poisson_system(5, seed=1)
        assert 0.0 < spectral_radius(jacobi_iteration_matrix(problem.A)) < 1.0
        print("ok")
    """)
    assert out.strip() == "ok"


@pytest.mark.parametrize("name", ["IncompleteCholeskyPreconditioner"])
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
