"""Empirical measurement of the extra iterations per lossy recovery (Fig. 2).

The paper measures, for the CG method, how many extra iterations one lossy
recovery costs on average: "For each experiment, we randomly select an
iteration to compress the approximate solution vector, decompress it to
continue the computations, and then count the number of extra iterations."
This module implements exactly that experiment for any solver/compressor
combination:

1. run the solver failure-free, recording the iterate at a set of candidate
   restart iterations;
2. for each sampled restart iteration ``t``: compress and decompress
   ``x^(t)``, restart the solver from the perturbed vector, and count how
   many iterations it needs to reach the original convergence criterion;
3. the extra iterations of that trial are ``(t + needed) - N`` where ``N`` is
   the failure-free iteration count.

The same harness powers the error-bound-sweep ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.compression.base import Compressor
from repro.solvers.base import IterativeSolver
from repro.utils.rng import SeedLike, default_rng

__all__ = ["ExtraIterationTrial", "ExtraIterationStudy", "measure_extra_iterations"]


@dataclass
class ExtraIterationTrial:
    """One lossy-restart trial."""

    restart_iteration: int
    iterations_after_restart: int
    extra_iterations: int
    compression_ratio: float
    converged: bool


@dataclass
class ExtraIterationStudy:
    """Aggregated result of :func:`measure_extra_iterations`."""

    baseline_iterations: int
    trials: List[ExtraIterationTrial] = field(default_factory=list)

    @property
    def mean_extra_iterations(self) -> float:
        """Mean extra iterations per lossy recovery (the paper's N')."""
        if not self.trials:
            return 0.0
        return float(np.mean([t.extra_iterations for t in self.trials]))

    @property
    def mean_extra_fraction(self) -> float:
        """Mean extra iterations as a fraction of the failure-free count."""
        if self.baseline_iterations == 0:
            return 0.0
        return self.mean_extra_iterations / self.baseline_iterations

    @property
    def max_extra_iterations(self) -> int:
        """Worst-case extra iterations across the trials."""
        if not self.trials:
            return 0
        return int(max(t.extra_iterations for t in self.trials))


def measure_extra_iterations(
    solver: IterativeSolver,
    b: np.ndarray,
    compressor: Compressor,
    *,
    trials: int = 10,
    restart_iterations: Optional[Sequence[int]] = None,
    x0: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> ExtraIterationStudy:
    """Run the Fig. 2 experiment for one solver/compressor pair.

    Parameters
    ----------
    solver, b:
        The configured solver and right-hand side.
    compressor:
        The (lossy) compressor applied to the iterate at the restart point.
    trials:
        Number of random restart iterations to sample (ignored when
        ``restart_iterations`` is given explicitly).
    restart_iterations:
        Explicit restart points; values outside ``[1, N-1]`` are clipped.
    seed:
        RNG seed for the random restart-iteration choice.
    """
    b = np.asarray(b, dtype=np.float64)
    rng = default_rng(seed)

    baseline = solver.solve(b, x0=x0)
    n_baseline = baseline.iterations
    if n_baseline < 2:
        raise ValueError(
            "the failure-free run converged in fewer than 2 iterations; "
            "the extra-iteration experiment is not meaningful"
        )

    if restart_iterations is None:
        count = max(1, int(trials))
        restart_iterations = sorted(
            int(v) for v in rng.integers(1, n_baseline, size=count)
        )
    targets = sorted({int(np.clip(t, 1, n_baseline - 1)) for t in restart_iterations})

    # Single instrumented failure-free run capturing x at the target iterations.
    snapshots: Dict[int, np.ndarray] = {}

    def capture(state) -> None:
        if state.iteration in wanted:
            snapshots[state.iteration] = state.x

    wanted = set(targets)
    solver.solve(b, x0=x0, callback=capture)

    study = ExtraIterationStudy(baseline_iterations=n_baseline)
    for t in targets:
        if t not in snapshots:
            continue
        blob = compressor.compress(snapshots[t])
        x_restart = np.asarray(compressor.decompress(blob), dtype=np.float64)
        resumed = solver.solve(b, x0=x_restart)
        extra = (t + resumed.iterations) - n_baseline
        study.trials.append(
            ExtraIterationTrial(
                restart_iteration=t,
                iterations_after_restart=resumed.iterations,
                extra_iterations=int(extra),
                compression_ratio=blob.compression_ratio,
                converged=resumed.converged,
            )
        )
    return study
