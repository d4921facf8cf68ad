#!/usr/bin/env python
"""Quickstart: lossy-checkpointed PCG on a 3D Poisson system.

Builds the paper's Eq. (15) Poisson problem, solves it with preconditioned CG,
protects the solver state with a ``CheckpointPipeline`` (the paper's
``Protect()``/``Snapshot()`` workflow: the solver declares its state, the
scheme decides how each variable is compressed), takes a lossy checkpoint
mid-run, simulates a failure by losing the state, restores from the checkpoint
and resumes — printing the compression ratio and the cost (in iterations) of
the lossy restart.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import CheckpointPipeline, MemoryCheckpointStore
from repro.core import CheckpointingScheme
from repro.precond import IncompleteCholeskyPreconditioner
from repro.solvers import CGSolver
from repro.sparse import poisson_system


def main() -> None:
    # 1. The problem: a 3D Poisson system with a smooth manufactured solution.
    problem = poisson_system(20, seed=1)
    print(f"Poisson problem: {problem.size} unknowns, {problem.nnz} nonzeros")

    # 2. The solver: preconditioned CG at the paper's CG tolerance (1e-7).
    solver = CGSolver(
        problem.A,
        preconditioner=IncompleteCholeskyPreconditioner(problem.A),
        rtol=1e-7,
        max_iter=5000,
    )
    baseline = solver.solve(problem.b)
    print(f"Failure-free run: {baseline.iterations} iterations, "
          f"relative residual {baseline.relative_residual:.2e}")

    # 3. Checkpointing: the pipeline protects what the solver declares and
    #    snapshots it mid-run under the lossy scheme (SZ-like compressor,
    #    pointwise relative bound 1e-4; Algorithm 2 stores the iterate only).
    pipeline = CheckpointPipeline(
        CheckpointingScheme.lossy(1e-4), solver=solver, store=MemoryCheckpointStore()
    )
    checkpoint_at = baseline.iterations // 2

    def on_iteration(it_state):
        if it_state.iteration == checkpoint_at:
            snapshot = pipeline.snapshot(it_state.x, iteration=it_state.iteration)
            pipeline.commit(snapshot)
            print(f"Checkpoint at iteration {it_state.iteration}: "
                  f"{snapshot.uncompressed_bytes} B -> {snapshot.serialized_bytes} B "
                  f"(ratio {snapshot.compression_ratio:.1f}x)")

    solver.solve(problem.b, callback=on_iteration)

    # 4. "Failure": the in-memory state is gone; restore the lossy checkpoint
    #    from the store and restart CG from the decompressed iterate
    #    (restarted CG, Algorithm 2).
    restored = pipeline.restore()
    resumed = solver.solve(problem.b, x0=restored.x)
    total = restored.iteration + resumed.iterations
    print(f"Restarted from the lossy checkpoint at iteration {restored.iteration}: "
          f"{resumed.iterations} more iterations "
          f"(total {total}, failure-free {baseline.iterations}, "
          f"extra {total - baseline.iterations})")
    error = np.linalg.norm(resumed.x - problem.x_true) / np.linalg.norm(problem.x_true)
    print(f"Solution error vs manufactured solution: {error:.2e}")


if __name__ == "__main__":
    main()
