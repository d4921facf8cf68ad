"""Tier-1 smoke test of the repo benchmark (``benchmarks/e2e/run.py``).

Runs the whole suite at ``--scale smoke`` (tiny grids, one sample of each
kind) and checks the *shape* of what comes out against ``BENCHMARK.json`` —
never a timing.  The four workloads run as four concurrent ``run.py``
processes so the test stays short; each writes its own document.
"""

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


def _run_smoke(workload: str, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--samples", "1",
         "--strict", "--workloads", workload, "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(out.read_text())


def test_smoke_suite_reports_every_declared_metric(tmp_path):
    workloads = [w["name"] for w in DECLARED["workloads"]]
    with ThreadPoolExecutor(len(workloads)) as pool:
        documents = list(pool.map(
            lambda name: _run_smoke(name, tmp_path / f"{name}.json"), workloads
        ))

    for name, document in zip(workloads, documents):
        assert list(document["workloads"]) == [name]
        assert document["scale"] == "smoke" and document["seed"] == 2018
        assert document["host"]["nproc"] >= 1 and "scrubbed_environment" in document["host"]
        entry = document["workloads"][name]
        assert entry["ops_attempted"] >= 1 and entry["ops_failed"] == 0
        assert entry["unresolved_layers"] == []
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
            assert set(entry[kind]) == set(declared), kind
            for metric, row in entry[kind].items():
                assert NAME.match(metric) and len(metric) <= 64, metric
                assert row["unit"] == declared[metric]
                assert math.isfinite(row["value"]), (name, metric)
        # The traced run saw the layers the smoke grids exercise.
        layers = entry["per_layer"]
        assert layers["campaign.cells"]["value"] == entry["campaign_cells"] >= 1
        assert layers["checkpoint.snapshots"]["value"] >= 1
        assert layers["solvers.iterations"]["value"] >= 1
        assert 0.5 < layers["trace.coverage_frac"]["value"] <= 1.0 + 1e-9


def test_declaration_is_self_consistent():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
