"""Microbenchmarks: checkpoint-store backends (throughput, pricing, dedup).

Writes a slowly-mutating checkpoint series (most chunks repeat between
consecutive checkpoints) through every store backend and measures

* real host throughput (MB/s for write and read-back, wall clock),
* the *modeled* seconds the backend's :class:`StoreProfile` prices for the
  same traffic — the number the engine actually charges, which must differ
  per backend (that is the whole point of the profiles), and
* the chunked backend's dedup ratio on the series.

Results go to ``BENCH_store.json`` (override with the ``BENCH_STORE_JSON``
environment variable) and are validated by ``check_bench_schema.py`` in CI.
"""

import json
import os
import time

import numpy as np

from conftest import run_once

from repro.checkpoint.chunked import ChunkedStore
from repro.checkpoint.store import (
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
)

_PAYLOAD_BYTES = 1 << 20  # 1 MiB per checkpoint
_NUM_CHECKPOINTS = 8
_MUTATED_FRACTION = 0.1  # fraction of each payload rewritten per step
_NUM_PROCESSES = 2048


def _payload_series():
    """A checkpoint series where ~10% of the bytes change per step."""
    rng = np.random.default_rng(2018)
    buffer = rng.integers(0, 256, _PAYLOAD_BYTES, dtype=np.uint8)
    series = []
    span = int(_PAYLOAD_BYTES * _MUTATED_FRACTION)
    for step in range(_NUM_CHECKPOINTS):
        start = int(rng.integers(0, _PAYLOAD_BYTES - span))
        buffer[start : start + span] = rng.integers(0, 256, span, dtype=np.uint8)
        series.append(buffer.tobytes())
    return series


def _backends(tmp_path):
    return {
        "memory": MemoryCheckpointStore(),
        "disk": FileCheckpointStore(tmp_path / "disk"),
        "object": SimulatedObjectStore(),
        "chunked": ChunkedStore(SimulatedObjectStore()),
    }


def _measure(store, series):
    total_mb = sum(len(p) for p in series) / 1e6
    start = time.perf_counter()
    for i, payload in enumerate(series):
        store.write(i, payload)
    write_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i, payload in enumerate(series):
        assert store.read(i) == payload  # read-back is also a correctness check
    read_seconds = time.perf_counter() - start

    profile = store.profile
    nbytes = float(sum(len(p) for p in series))
    # A dedup backend only ships its unique bytes — price what travels,
    # exactly as the engine does.
    shipped = nbytes
    dedup_stats = getattr(store, "dedup_stats", None)
    stats = dedup_stats() if dedup_stats is not None else None
    if stats is not None:
        shipped = stats["unique_bytes"]
    row = {
        "backend": profile.name,
        "durability": profile.durability,
        "write_mb_per_s": round(total_mb / max(write_seconds, 1e-9), 1),
        "read_mb_per_s": round(total_mb / max(read_seconds, 1e-9), 1),
        "modeled_write_seconds": profile.write_seconds(shipped, _NUM_PROCESSES),
        "modeled_read_seconds": profile.read_seconds(nbytes, _NUM_PROCESSES),
        "modeled_drain_seconds": profile.drain_seconds(shipped, _NUM_PROCESSES),
        "dedup_ratio": 1.0,
    }
    if stats is not None:
        row["dedup_ratio"] = round(stats["dedup_ratio"], 3)
        row["unique_bytes"] = stats["unique_bytes"]
        row["logical_bytes"] = stats["logical_bytes"]
    return row


def test_bench_store_backends(benchmark, tmp_path):
    series = _payload_series()
    results = run_once(
        benchmark,
        lambda: {
            name: _measure(store, series)
            for name, store in _backends(tmp_path).items()
        },
    )

    report = {
        "payload_bytes": _PAYLOAD_BYTES,
        "num_checkpoints": _NUM_CHECKPOINTS,
        "mutated_fraction": _MUTATED_FRACTION,
        "num_processes": _NUM_PROCESSES,
        "backends": results,
    }
    if os.environ.get("BENCH_EMIT_TIMESTAMP"):
        # Opt-in only: a wall-clock stamp makes every run a spurious diff of
        # the committed artifact, so the default output is deterministic in
        # everything but the measured rates.
        report["timestamp"] = time.time()
    out_path = os.environ.get("BENCH_STORE_JSON", "BENCH_store.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    header = (
        f"{'backend':<10} {'write MB/s':>11} {'read MB/s':>10} "
        f"{'modeled s':>10} {'dedup':>6}"
    )
    print("\n" + header)
    for name, row in results.items():
        print(
            f"{name:<10} {row['write_mb_per_s']:>11.1f} "
            f"{row['read_mb_per_s']:>10.1f} "
            f"{row['modeled_write_seconds']:>10.2f} {row['dedup_ratio']:>6.2f}"
        )

    # The priced profiles are what distinguish the backends: every backend
    # must charge a different modeled time for identical traffic.
    modeled = [row["modeled_write_seconds"] for row in results.values()]
    assert len(set(modeled)) == len(modeled)
    assert (
        results["memory"]["modeled_write_seconds"]
        < results["disk"]["modeled_write_seconds"]
        < results["object"]["modeled_write_seconds"]
    )
    # A 10%-mutation series dedups well above 1x on the chunked backend.
    assert results["chunked"]["dedup_ratio"] > 1.0
    assert results["memory"]["dedup_ratio"] == 1.0
    # Durability scopes survive into the artifact for the docs table.
    assert results["memory"]["durability"] == "process"
    assert results["object"]["durability"] == "system"
