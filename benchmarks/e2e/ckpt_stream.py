"""Child process: stream CG states through the checkpoint pipeline.

For each scheme (``traditional``, ``lossless``, ``lossy-sz``, ``lossy-zfp``)
and each captured solver state the child runs one cycle, ``pipeline.snapshot``
-> ``pipeline.commit`` (memory store) -> ``pipeline.restore``, timing the three
calls separately and checking what came back: exact schemes must return ``x``
and every resume vector/scalar bit for bit, lossy schemes must keep ``x``
within the pointwise-relative bound.  One warm-up pass over all states is
discarded, then passes repeat until ``--seconds`` have gone by (at least
``--min-passes``).  The result is one JSON document at ``--out``.

With ``--trace`` the public entry points are wrapped first (``layers.py``) and
every produced payload is additionally written and read once through each
store backend, timed from outside.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_T0 = time.perf_counter()

from workloads import COMPRESSING, ERROR_BOUND, SCHEMES  # noqa: E402


def build_inputs(grid_n: int, states: int, seed: int) -> dict:
    """Set-up: matrix assembly, iterate capture, pipeline construction.

    The states are CG iterates with their full resume state, taken every 2nd
    iteration after a seed-dependent warm-in of 8-11 iterations.
    """
    import numpy as np

    from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
    from repro.core import CheckpointingScheme
    from repro.solvers import CGSolver
    from repro.sparse import poisson_system

    problem = poisson_system(grid_n, seed=seed)
    warm_in = 8 + seed % 4
    solver = CGSolver(problem.A, rtol=1e-15, max_iter=warm_in + 2 * states)
    captured = []

    def capture(state) -> None:
        if state.iteration > warm_in and (state.iteration - warm_in) % 2 == 0:
            resume = solver.capture_resume_state(state)
            if resume is not None:
                captured.append((state.iteration, state.x, resume, state.residual_norm))

    solver.solve(problem.b, callback=capture)
    if len(captured) < states:
        raise RuntimeError(
            f"captured {len(captured)} of {states} CG states at grid_n={grid_n}; "
            "the solve converged before the stream was full"
        )
    schemes = {
        "traditional": CheckpointingScheme.traditional(),
        "lossless": CheckpointingScheme.lossless(),
        "lossy-sz": CheckpointingScheme.lossy(ERROR_BOUND, compressor="sz"),
        "lossy-zfp": CheckpointingScheme.lossy(ERROR_BOUND, compressor="zfp"),
    }
    pipelines = {
        name: CheckpointPipeline(schemes[name], solver=solver, store=MemoryCheckpointStore())
        for name in SCHEMES
    }
    return {
        "states": captured[:states],
        "b_norm": float(np.linalg.norm(problem.b)),
        "pipelines": pipelines,
        "vector_bytes": int(problem.b.nbytes),
    }


def _same_bits(left, right) -> bool:
    return left.dtype == right.dtype and left.tobytes() == right.tobytes()


def _restored_ok(pipeline, state, restored) -> bool:
    from repro.compression import max_pointwise_relative_error

    _, x, resume, _ = state
    if pipeline.scheme.lossy:
        return max_pointwise_relative_error(x, restored.x) <= ERROR_BOUND
    if not _same_bits(x, restored.x):
        return False
    if not pipeline.stores_resume_state:
        return True
    back = restored.resume_state
    return (
        back is not None
        and all(_same_bits(resume.vectors[k], back.vectors[k]) for k in resume.vectors)
        and all(resume.scalars[k] == back.scalars[k] for k in resume.scalars)
    )


def run_pass(inputs: dict):
    """One snapshot -> commit -> restore cycle per (scheme, state).

    Returns the per-scheme sums and the payloads the pass produced.
    """
    clock = time.perf_counter
    out = {}
    payloads = []
    for name, pipeline in inputs["pipelines"].items():
        row = {
            "snapshot_s": 0.0, "commit_s": 0.0, "restore_s": 0.0,
            "uncompressed_bytes": 0, "serialized_bytes": 0,
            "attempted": 0, "failed": 0,
        }
        for index, state in enumerate(inputs["states"]):
            iteration, x, resume, residual_norm = state
            t0 = clock()
            snap = pipeline.snapshot(
                x, iteration=iteration, resume_state=resume,
                residual_norm=residual_norm, b_norm=inputs["b_norm"], checkpoint_id=index,
            )
            t1 = clock()
            pipeline.commit(snap)
            t2 = clock()
            restored = pipeline.restore(index)
            t3 = clock()
            row["snapshot_s"] += t1 - t0
            row["commit_s"] += t2 - t1
            row["restore_s"] += t3 - t2
            row["uncompressed_bytes"] += snap.uncompressed_bytes
            row["serialized_bytes"] += snap.serialized_bytes
            row["attempted"] += 1
            row["failed"] += 0 if _restored_ok(pipeline, state, restored) else 1
            payloads.append(snap.payload)
        out[name] = row
    return out, payloads


def backend_rates(payloads, work_dir: str) -> dict:
    """Write then read every payload once through each store backend."""
    import tempfile

    from repro.checkpoint import (
        ChunkedStore,
        FileCheckpointStore,
        MemoryCheckpointStore,
        SimulatedObjectStore,
    )

    clock = time.perf_counter
    mib = sum(len(p) for p in payloads) / float(1 << 20)
    rates = {}
    with tempfile.TemporaryDirectory(dir=work_dir) as disk_dir:
        backends = {
            "memory": MemoryCheckpointStore(),
            # The sandbox's page cache plus fsync, not a device bandwidth.
            "disk": FileCheckpointStore(disk_dir),
            "object": SimulatedObjectStore(),
            "chunked": ChunkedStore(SimulatedObjectStore()),
        }
        for name, store in backends.items():
            t0 = clock()
            for index, payload in enumerate(payloads):
                store.write(index, payload)
            t1 = clock()
            for index, payload in enumerate(payloads):
                if store.read(index) != payload:
                    raise RuntimeError(f"{name} store returned different bytes")
            t2 = clock()
            rates[f"checkpoint.store.{name}.write_mib_s"] = mib / (t1 - t0)
            rates[f"checkpoint.store.{name}.read_mib_s"] = mib / (t2 - t1)
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON: grid_n, states, seed")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-dir", default=".")
    args = parser.parse_args(argv)
    config = json.loads(args.config)

    tracer = None
    unresolved = []
    if args.trace:
        import layers

        tracer = layers.Tracer()
        with tracer.span("runtime.import"):
            unresolved = layers.install(tracer)

    t0 = time.perf_counter()
    inputs = build_inputs(**config)
    setup_s = time.perf_counter() - t0

    run_pass(inputs)  # warm-up, discarded
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < args.min_passes or time.perf_counter() < deadline:
        rows, payloads = run_pass(inputs)
        passes.append(rows)

    # Both modes stop the clock here, so traced and untraced walls compare.
    inner_wall_s = time.perf_counter() - _T0
    result = {
        "setup_s": setup_s,
        "inner_wall_s": inner_wall_s,
        "vector_bytes": inputs["vector_bytes"],
        "states": len(inputs["states"]),
        "passes": passes,
        "unresolved_layers": unresolved,
    }
    if tracer is not None:
        # Drained first, so the backend sweep below stays out of the layers.
        result["trace"] = layers.aggregate(tracer.drain(), inner_wall_s)
        result["backend_rates"] = backend_rates(payloads, args.work_dir)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


def summarize(result: dict) -> dict:
    """Reduce one child's timed passes to the stream metrics.

    Rates are MiB of uncompressed dynamic state per second of ``snapshot`` /
    ``restore``.  ``snapshot_mib_s`` / ``restore_mib_s`` hold one sample per
    pass, the geometric mean over the compressing schemes; the per-scheme
    entries hold the median over passes.  Byte counts are exact for a seed.
    """
    import statistics

    mib = float(1 << 20)
    passes = result["passes"]

    def rate(row, op):
        return row["uncompressed_bytes"] / mib / row[f"{op}_s"]

    summary = {
        "attempted": sum(row["attempted"] for p in passes for row in p.values()),
        "failed": sum(row["failed"] for p in passes for row in p.values()),
        "schemes": {
            name: {
                "snapshot_mib_s": statistics.median(rate(p[name], "snapshot") for p in passes),
                "restore_mib_s": statistics.median(rate(p[name], "restore") for p in passes),
                "uncompressed_bytes": passes[0][name]["uncompressed_bytes"],
                "serialized_bytes": passes[0][name]["serialized_bytes"],
            }
            for name in SCHEMES
        },
    }
    for op in ("snapshot", "restore"):
        summary[f"{op}_mib_s"] = [
            statistics.geometric_mean(rate(p[name], op) for name in COMPRESSING) for p in passes
        ]
    compressing = [summary["schemes"][name] for name in COMPRESSING]
    summary["stored_bytes_per_state_byte"] = sum(
        s["serialized_bytes"] for s in compressing
    ) / sum(s["uncompressed_bytes"] for s in compressing)
    return summary


if __name__ == "__main__":
    sys.exit(main())
