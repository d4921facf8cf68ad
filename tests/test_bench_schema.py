"""The benchmark-artifact schema checker must catch hollow uploads."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_schema.py"
_spec = importlib.util.spec_from_file_location("check_bench_schema", _MODULE_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def _valid_runner() -> dict:
    row = {
        "converged": True,
        "iterations_per_second": 1000.0,
        "total_iterations": 131,
        "events_processed": 90,
        "events_per_second": 2000.0,
        "num_failures": 3,
        "num_checkpoints": 5,
        "seconds": 0.1,
        "replay_hits": 4,
        "replay_iterations_saved": 120,
    }
    return {
        "baseline_iterations": 131,
        "scenarios": {"lossy-poisson": dict(row), "lossy-poisson-async": dict(row)},
    }


def _valid_pipeline() -> dict:
    def combo(scheme):
        return {
            "scheme": scheme,
            "method": "cg",
            "snapshot_mb_per_s": 150.0,
            "restore_mb_per_s": 140.0,
            "checkpoints_per_s": 200.0,
            "payload_bytes": 100000,
            "dynamic_bytes": 128016,
            "compress_threads": 1,
            "format_version": 2,
        }
    def sweep_row(input_bytes, threads):
        return {
            "input_bytes": input_bytes,
            "coded_bytes": input_bytes // 4,
            "threads": threads,
            "fan_out": threads > 1 and input_bytes >= 16 << 20,
            "payload_bytes": input_bytes // 2,
            "payload_identical": True,
            "compress_mb_per_s": 400.0,
        }
    return {
        "combinations": {"lossless/cg": combo("lossless"), "lossy/cg": combo("lossy")},
        "threads_sweep": [
            sweep_row(size, threads) for size in (1 << 15, 16 << 20) for threads in (1, 2)
        ],
    }


def _valid_store() -> dict:
    def backend(name, durability, modeled, dedup=1.0):
        return {
            "backend": name,
            "durability": durability,
            "write_mb_per_s": 500.0,
            "read_mb_per_s": 900.0,
            "modeled_write_seconds": modeled,
            "modeled_read_seconds": modeled,
            "modeled_drain_seconds": modeled * 1.2,
            "dedup_ratio": dedup,
        }
    return {
        "payload_bytes": 1 << 20,
        "num_checkpoints": 8,
        "backends": {
            "memory": backend("memory", "process", 0.2),
            "disk": backend("disk", "node", 2.0),
            "object": backend("object", "system", 28.6),
            "chunked": backend("object", "system", 28.5, dedup=4.6),
        },
    }


_VALID = {
    "BENCH_runner.json": _valid_runner,
    "BENCH_pipeline.json": _valid_pipeline,
    "BENCH_store.json": _valid_store,
}


@pytest.mark.parametrize("name", sorted(_VALID))
def test_valid_artifacts_pass(tmp_path, name):
    path = tmp_path / name
    path.write_text(json.dumps(_VALID[name]()))
    assert checker.check_file(path) == []


@pytest.mark.parametrize("name", sorted(_VALID))
def test_empty_sections_fail(tmp_path, name):
    data = _VALID[name]()
    (key,) = [k for k in data if isinstance(data[k], dict) and k != "baseline_iterations"]
    data[key] = {}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    assert checker.check_file(path)


def test_runner_requires_both_write_modes(tmp_path):
    data = _valid_runner()
    del data["scenarios"]["lossy-poisson-async"]
    path = tmp_path / "BENCH_runner.json"
    path.write_text(json.dumps(data))
    errors = checker.check_file(path)
    assert any("async" in e for e in errors)


def test_runner_requires_events_per_second(tmp_path):
    data = _valid_runner()
    del data["scenarios"]["lossy-poisson"]["events_per_second"]
    path = tmp_path / "BENCH_runner.json"
    path.write_text(json.dumps(data))
    errors = checker.check_file(path)
    assert any("events_per_second" in e for e in errors)


@pytest.mark.parametrize("key", ["replay_hits", "replay_iterations_saved"])
def test_runner_requires_replay_counters(tmp_path, key):
    path = tmp_path / "BENCH_runner.json"

    # Missing entirely: the harness stopped reporting the cache.
    data = _valid_runner()
    del data["scenarios"]["lossy-poisson"][key]
    path.write_text(json.dumps(data))
    assert any(key in e for e in checker.check_file(path))

    # Negative or fractional counts are accounting bugs, not measurements.
    for bad in (-1, 2.5, True):
        data = _valid_runner()
        data["scenarios"]["lossy-poisson"][key] = bad
        path.write_text(json.dumps(data))
        assert any(key in e for e in checker.check_file(path)), bad

    # Zero is legal: the REPRO_REPLAY=off comparison artifact records none.
    data = _valid_runner()
    data["scenarios"]["lossy-poisson"][key] = 0
    path.write_text(json.dumps(data))
    assert checker.check_file(path) == []


@pytest.mark.parametrize(
    "name, rate, ok",
    [
        ("traditional-poisson", 4999.0, False),
        ("traditional-poisson", 5000.0, True),
        ("traditional-poisson-async", 3999.0, False),
        ("traditional-poisson-async", 4000.0, True),
        ("lossy-poisson", 999.0, False),
        ("lossy-weibull-fti", 999.0, False),
        ("lossy-weibull-fti", 1000.0, True),
        ("custom-series", 1.0, True),  # unknown series has no floor
    ],
)
def test_runner_events_per_second_floors(tmp_path, name, rate, ok):
    data = _valid_runner()
    row = data["scenarios"].pop("lossy-poisson")
    row["events_per_second"] = rate
    data["scenarios"][name] = row
    path = tmp_path / "BENCH_runner.json"
    path.write_text(json.dumps(data))
    errors = checker.check_file(path)
    floor_errors = [e for e in errors if "floor" in e]
    assert bool(floor_errors) != ok, errors


def test_variant_artifact_names_share_base_schema(tmp_path):
    """``BENCH_runner_replay_off.json`` (the replay-disabled comparison run
    the workflow uploads) must validate against the runner schema."""
    path = tmp_path / "BENCH_runner_replay_off.json"
    path.write_text(json.dumps(_valid_runner()))
    assert checker.check_file(path) == []

    data = _valid_runner()
    data["scenarios"] = {}
    path.write_text(json.dumps(data))
    assert checker.check_file(path)


def test_nonpositive_rate_fails(tmp_path):
    data = _valid_pipeline()
    data["combinations"]["lossless/cg"]["snapshot_mb_per_s"] = 0.0
    path = tmp_path / "BENCH_pipeline.json"
    path.write_text(json.dumps(data))
    errors = checker.check_file(path)
    assert any("snapshot_mb_per_s" in e for e in errors)


@pytest.mark.parametrize(
    "scheme, rate, ok",
    [
        ("lossless", 59.0, False),   # below the lossless floor
        ("lossless", 60.0, True),
        ("lossy", 99.0, False),      # below the lossy floor
        ("lossy", 100.0, True),
        ("lossy-adaptive", 80.0, False),
        ("lossy-zfp", 79.0, False),  # the v1 writer's rates stay out
        ("lossy-zfp", 80.0, True),
        ("traditional", 5.0, True),  # traditional has no floor
    ],
)
def test_pipeline_snapshot_rate_floors(tmp_path, scheme, rate, ok):
    data = _valid_pipeline()
    row = data["combinations"].pop("lossy/cg")
    row["scheme"] = scheme
    row["snapshot_mb_per_s"] = rate
    data["combinations"][f"{scheme}/cg"] = row
    path = tmp_path / "BENCH_pipeline.json"
    path.write_text(json.dumps(data))
    errors = checker.check_file(path)
    floor_errors = [e for e in errors if "floor" in e]
    assert bool(floor_errors) != ok


@pytest.mark.parametrize("key", ["compress_threads", "format_version"])
def test_pipeline_requires_compression_fields(tmp_path, key):
    data = _valid_pipeline()
    del data["combinations"]["lossy/cg"][key]
    path = tmp_path / "BENCH_pipeline.json"
    path.write_text(json.dumps(data))
    assert any(key in e for e in checker.check_file(path))

    data = _valid_pipeline()
    data["combinations"]["lossy/cg"][key] = -1
    path.write_text(json.dumps(data))
    assert any(key in e for e in checker.check_file(path))


def test_pipeline_threads_sweep_is_checked(tmp_path):
    path = tmp_path / "BENCH_pipeline.json"

    data = _valid_pipeline()
    del data["threads_sweep"]
    path.write_text(json.dumps(data))
    assert any("threads_sweep" in e for e in checker.check_file(path))

    # Payload bytes that move with the thread count break content addressing.
    data = _valid_pipeline()
    data["threads_sweep"][1]["payload_identical"] = False
    path.write_text(json.dumps(data))
    assert any("thread count" in e for e in checker.check_file(path))

    # A sweep that never reaches the sizes where fan-out can pay says nothing.
    data = _valid_pipeline()
    data["threads_sweep"] = data["threads_sweep"][:2]
    path.write_text(json.dumps(data))
    assert any("16 MiB" in e for e in checker.check_file(path))

    data = _valid_pipeline()
    del data["threads_sweep"][0]["coded_bytes"]
    path.write_text(json.dumps(data))
    assert any("coded_bytes" in e for e in checker.check_file(path))


def test_invalid_json_and_unknown_name(tmp_path):
    bad = tmp_path / "BENCH_store.json"
    bad.write_text("{not json")
    assert any("JSON" in e for e in checker.check_file(bad))
    unknown = tmp_path / "BENCH_mystery.json"
    unknown.write_text("{}")
    assert any("no schema" in e for e in checker.check_file(unknown))


def test_store_requires_distinct_pricing_and_dedup(tmp_path):
    data = _valid_store()
    # Two backends priced identically: the artifact has lost its point.
    data["backends"]["disk"]["modeled_write_seconds"] = (
        data["backends"]["memory"]["modeled_write_seconds"]
    )
    path = tmp_path / "BENCH_store.json"
    path.write_text(json.dumps(data))
    assert any("distinct" in e for e in checker.check_file(path))

    data = _valid_store()
    data["backends"]["chunked"]["dedup_ratio"] = 1.0
    path.write_text(json.dumps(data))
    assert any("dedup_ratio" in e for e in checker.check_file(path))

    data = _valid_store()
    del data["backends"]["chunked"]
    path.write_text(json.dumps(data))
    assert any("chunked" in e for e in checker.check_file(path))


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "BENCH_store.json"
    good.write_text(json.dumps(_valid_store()))
    assert checker.main([str(good)]) == 0
    bad = tmp_path / "BENCH_runner.json"
    bad.write_text("{}")
    assert checker.main([str(good), str(bad)]) == 1
    assert checker.main([]) == 2
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out


def test_local_artifacts_are_valid():
    """Benchmark outputs in the workspace (gitignored) must satisfy the
    schemas the CI upload is gated on.

    Rate *floors* are excluded here on purpose: workspace artifacts are
    produced by whatever machine last ran the benchmark suite — often while
    busy with the rest of the test session — so absolute-MB/s checks would
    make this test flake on slow or loaded hosts.  The floors still gate the
    dedicated CLI run (``python benchmarks/check_bench_schema.py``) that CI
    executes against the artifact it uploads.
    """
    repo = _MODULE_PATH.parent.parent
    present = [repo / name for name in sorted(_VALID) if (repo / name).exists()]
    if not present:
        pytest.skip("no benchmark artifacts in the workspace")
    for artifact in present:
        errors = [e for e in checker.check_file(artifact) if " floor of " not in e]
        assert errors == [], artifact.name
