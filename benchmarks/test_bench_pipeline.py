"""Microbenchmark: checkpoint-pipeline snapshot/restore throughput.

Times :meth:`~repro.checkpoint.pipeline.CheckpointPipeline.snapshot` (the
full per-variable compress + serialize path) and
:meth:`~repro.checkpoint.pipeline.CheckpointPipeline.restore` on a mid-run
solver state for every scheme × solver combination, reporting **MB/s of
dynamic state pushed through the pipeline** and **checkpoints per second**.
This is the hot path of every engine run under measured costing, so its
throughput trajectory is worth tracking across PRs.  A second series, the
``threads_sweep``, compresses lossless vectors from 32 KiB to 32 MiB at one
shard thread and at ``min(nproc, 4)``: the measurement behind
:data:`repro.compression.sharded.FANOUT_MIN_CODED_BYTES`.

Numbers go to ``BENCH_pipeline.json`` (override with the
``BENCH_PIPELINE_JSON`` environment variable); the nightly benchmarks
workflow uploads the file as an artifact.  The pipeline times itself
internally (perf_counter), so the file carries real rates even under
``--benchmark-disable``.
"""

import json
import os
import time
from unittest import mock

import numpy as np
from conftest import run_once

from repro.checkpoint import CheckpointPipeline
from repro.checkpoint.serialization import deserialize_checkpoint
from repro.compression import sharded
from repro.compression.base import CompressedBlob
from repro.compression.sharded import FANOUT_MIN_CODED_BYTES, resolve_threads
from repro.core.schemes import CheckpointingScheme
from repro.solvers import BiCGStabSolver, CGSolver, GMRESSolver, JacobiSolver
from repro.sparse import poisson_system

_REPEATS = 5
_SNAPSHOTS_PER_REPEAT = 20

_SOLVERS = {
    "jacobi": lambda A: JacobiSolver(A, rtol=1e-4, max_iter=100000),
    "cg": lambda A: CGSolver(A, rtol=1e-7, max_iter=100000),
    "gmres": lambda A: GMRESSolver(A, rtol=7e-5, max_iter=100000),
    "bicgstab": lambda A: BiCGStabSolver(A, rtol=1e-7, max_iter=100000),
}

_SCHEMES = {
    "traditional": CheckpointingScheme.traditional,
    "lossless": CheckpointingScheme.lossless,
    "lossy": lambda: CheckpointingScheme.lossy(1e-4),
    "lossy-adaptive": lambda: CheckpointingScheme.lossy(1e-4, adaptive=True),
    "lossy-zfp": lambda: CheckpointingScheme.lossy(1e-4, compressor="zfp"),
}

#: Input sizes of the threads sweep, 32 KiB (one campaign checkpoint vector)
#: to 32 MiB; the upper sizes sit above the fan-out threshold in coded bytes.
_SWEEP_INPUT_BYTES = tuple(1 << power for power in (15, 17, 19, 21, 23, 24, 25))


def _payload_format_version(payload: bytes) -> int:
    """Highest blob payload-format version carried by a serialized checkpoint."""
    entries = deserialize_checkpoint(payload).entries.values()
    versions = [e.format_version for e in entries if isinstance(e, CompressedBlob)]
    return max(versions, default=0)


def _mid_run_state(solver, b, iterations=25):
    states = []
    solver.solve(b, callback=lambda s: states.append(s), max_iter=iterations)
    for state in reversed(states):
        if solver.capture_resume_state(state) is not None:
            return state
    return states[-1]


def _measure():
    problem = poisson_system(20, seed=42)
    b_norm = float(np.linalg.norm(problem.b))
    report = {"n": int(problem.A.shape[0]), "combinations": {}}
    for method, solver_factory in _SOLVERS.items():
        solver = solver_factory(problem.A)
        state = _mid_run_state(solver, problem.b)
        resume = solver.capture_resume_state(state)
        for scheme_name, scheme_factory in _SCHEMES.items():
            scheme = scheme_factory()
            pipeline = CheckpointPipeline(scheme, solver=solver)
            kwargs = dict(
                iteration=state.iteration,
                resume_state=resume if scheme.checkpoint_krylov_state else None,
                residual_norm=state.residual_norm,
                b_norm=b_norm,
            )
            snap = pipeline.snapshot(state.x, **kwargs)
            dynamic_bytes = snap.uncompressed_bytes
            best_snap = best_restore = None
            for _ in range(_REPEATS):
                start = time.perf_counter()
                for _ in range(_SNAPSHOTS_PER_REPEAT):
                    snap = pipeline.snapshot(state.x, **kwargs)
                elapsed = (time.perf_counter() - start) / _SNAPSHOTS_PER_REPEAT
                best_snap = elapsed if best_snap is None else min(best_snap, elapsed)
                start = time.perf_counter()
                for _ in range(_SNAPSHOTS_PER_REPEAT):
                    restored = pipeline.restore(payload=snap.payload)
                elapsed = (time.perf_counter() - start) / _SNAPSHOTS_PER_REPEAT
                best_restore = (
                    elapsed if best_restore is None else min(best_restore, elapsed)
                )
            assert restored.x.shape == state.x.shape
            report["combinations"][f"{scheme_name}/{method}"] = {
                "scheme": scheme_name,
                "method": method,
                "dynamic_bytes": int(dynamic_bytes),
                "payload_bytes": int(snap.serialized_bytes),
                "compression_ratio": float(snap.compression_ratio),
                "vectors": len(snap.vector_measurements),
                "snapshot_seconds": best_snap,
                "restore_seconds": best_restore,
                "snapshot_mb_per_s": dynamic_bytes / best_snap / 1024**2,
                "restore_mb_per_s": dynamic_bytes / best_restore / 1024**2,
                "checkpoints_per_s": 1.0 / best_snap,
                "compress_threads": resolve_threads(),
                "format_version": _payload_format_version(snap.payload),
            }
    report["threads_sweep"] = _measure_threads_sweep()
    return report


def _solver_like_vector(nbytes, rng):
    """Smooth field plus small noise: exponent planes DEFLATE, mantissa
    planes are entropy-gated raw — the shape of a solver iterate.  The grid
    step is fixed, so every size has the same per-plane statistics."""
    n = nbytes // 8
    grid = 1e-3 * np.arange(n)
    return 3.0 + np.sin(grid) + 0.25 * np.sin(7.3 * grid) + rng.normal(0.0, 1e-3, n)


def _best_compress(compressor, vector, calls):
    """(best seconds per call, payload) over ``_REPEATS`` timed batches."""
    payload = compressor.compress(vector).payload  # warm-up
    best = None
    for _ in range(_REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            payload = compressor.compress(vector).payload
        elapsed = (time.perf_counter() - start) / calls
        best = elapsed if best is None else min(best, elapsed)
    return best, payload


def _measure_threads_sweep():
    """Lossless compress throughput by input size at 1 vs ``min(nproc, 4)``
    shard threads.

    Each row records the bytes that actually entered the codec
    (``coded_bytes``) and whether the frame fanned out; multi-thread rows
    also carry ``forced_fan_out_mb_per_s`` — the same call with the
    threshold patched to zero, i.e. what a pool costs or buys at that size.
    That column is the measurement the threshold is chosen from.  Payload
    bytes must be identical in every column (the RSF2 frame is
    deterministic by construction).
    """
    rng = np.random.default_rng(2018)
    rows = []
    for nbytes in _SWEEP_INPUT_BYTES:
        vector = _solver_like_vector(nbytes, rng)
        calls = max(2, min(_SNAPSHOTS_PER_REPEAT, (1 << 23) // nbytes))
        compressor = CheckpointingScheme.lossless().compressor()
        coded_bytes = 0
        compress_shard = sharded._compress_shard

        def counting_compress_shard(codec, level, data):
            nonlocal coded_bytes
            coded_bytes += len(data)
            return compress_shard(codec, level, data)

        with mock.patch.object(sharded, "_compress_shard", counting_compress_shard):
            reference = compressor.compress(vector).payload
        for threads in sorted({1, min(os.cpu_count() or 1, 4)}):
            # Compressors default to threads=None, so the environment
            # variable is the single control surface, as for the pipeline.
            with mock.patch.dict(os.environ, REPRO_COMPRESS_THREADS=str(threads)):
                best, payload = _best_compress(compressor, vector, calls)
                row = {
                    "input_bytes": int(nbytes),
                    "coded_bytes": int(coded_bytes),
                    "threads": threads,
                    "fan_out": threads > 1 and coded_bytes >= FANOUT_MIN_CODED_BYTES,
                    "payload_bytes": len(payload),
                    "payload_identical": payload == reference,
                    "compress_mb_per_s": nbytes / best / 1024**2,
                }
                if threads > 1:
                    with mock.patch.object(sharded, "FANOUT_MIN_CODED_BYTES", 0):
                        best, payload = _best_compress(compressor, vector, calls)
                    row["forced_fan_out_mb_per_s"] = nbytes / best / 1024**2
                    row["payload_identical"] &= payload == reference
            rows.append(row)
    return rows


def test_bench_pipeline_throughput(benchmark):
    report = run_once(benchmark, _measure)

    out_path = os.environ.get("BENCH_PIPELINE_JSON", "BENCH_pipeline.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    rows = report["combinations"]
    assert len(rows) == len(_SOLVERS) * len(_SCHEMES)
    for name, row in rows.items():
        # Every combination must push state through at a usable rate and the
        # payload must actually carry the declared state.
        assert row["checkpoints_per_s"] > 5.0, name
        assert row["snapshot_mb_per_s"] > 1.0, name
        assert row["payload_bytes"] > 0, name
        assert row["compress_threads"] >= 1, name
        # Compressing schemes write sharded v2 payloads; traditional stores raw.
        if row["scheme"] == "traditional":
            assert row["format_version"] < 2, name
        else:
            assert row["format_version"] == 2, name
    # Thread count must never change payload bytes (deterministic framing),
    # on either side of the fan-out threshold.
    sweep = report["threads_sweep"]
    assert {row["input_bytes"] for row in sweep} == set(_SWEEP_INPUT_BYTES)
    assert all(row["payload_identical"] for row in sweep)
    assert all(0 < row["coded_bytes"] <= row["input_bytes"] for row in sweep)
    assert not any(row["fan_out"] for row in sweep if row["input_bytes"] <= 1 << 21)
    assert max(row["coded_bytes"] for row in sweep) >= FANOUT_MIN_CODED_BYTES
    # The measured payload composition: BiCGSTAB-exact stores 5 vectors.
    assert rows["traditional/bicgstab"]["vectors"] == 5
    assert rows["lossy/bicgstab"]["vectors"] == 1
    # Lossy checkpoints are smaller than traditional ones on solver iterates.
    assert (
        rows["lossy/jacobi"]["payload_bytes"]
        < rows["traditional/jacobi"]["payload_bytes"]
    )
