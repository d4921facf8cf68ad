"""Run reports of the fault-tolerance engine (and the failure-free baseline).

:class:`FTRunReport` is the JSON-round-trippable outcome of one
failure-injected run; its serialization is byte-deterministic
(``sort_keys``), which is what the campaign cache, the cross-process
executor and the engine-equivalence tests rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.solvers.base import IterativeSolver

__all__ = ["BaselineRun", "FTRunReport", "run_failure_free"]


def _json_scalar(value: object) -> object:
    """Coerce numpy scalars to plain Python so ``json.dumps`` accepts them."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class BaselineRun:
    """Failure-free reference execution of a solver."""

    iterations: int
    converged: bool
    residual_norms: List[float]
    final_residual_norm: float
    x: np.ndarray


def run_failure_free(
    solver: IterativeSolver, b: np.ndarray, *, x0: Optional[np.ndarray] = None
) -> BaselineRun:
    """Run ``solver`` once without failures and return the reference trajectory."""
    result = solver.solve(b, x0=x0)
    return BaselineRun(
        iterations=result.iterations,
        converged=result.converged,
        residual_norms=list(result.residual_norms),
        final_residual_norm=result.final_residual_norm,
        x=result.x,
    )


@dataclass
class FTRunReport:
    """Outcome of one failure-injected run."""

    scheme: str
    method: str
    converged: bool
    total_iterations: int
    baseline_iterations: int
    num_failures: int
    num_checkpoints: int
    num_restarts_from_scratch: int
    total_seconds: float
    productive_seconds: float
    checkpoint_seconds: float
    recovery_seconds: float
    checkpoint_interval_seconds: float
    mean_checkpoint_seconds: float
    mean_recovery_seconds: float
    mean_compression_ratio: float
    residual_trace: List[Tuple[int, float]] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def extra_iterations(self) -> int:
        """Iterations beyond the failure-free baseline (the measured N' total)."""
        return self.total_iterations - self.baseline_iterations

    @property
    def io_drain_seconds(self) -> float:
        """Total I/O-channel drain time of an async run (0 for blocking runs).

        Drain time overlaps compute, so it is *not* part of
        ``total_seconds``/overhead — it measures how busy the second channel
        was.
        """
        return float(self.info.get("io_drain_seconds", 0.0))

    @property
    def fault_tolerance_overhead(self) -> float:
        """Total time minus the failure-free productive time (paper's metric)."""
        return self.total_seconds - self.productive_seconds

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to the failure-free productive time."""
        if self.productive_seconds == 0:
            return float("inf")
        return self.fault_tolerance_overhead / self.productive_seconds

    # -- serialization (campaign cache / worker transport) -------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation (numpy scalars coerced)."""
        return {
            "scheme": str(self.scheme),
            "method": str(self.method),
            "converged": bool(self.converged),
            "total_iterations": int(self.total_iterations),
            "baseline_iterations": int(self.baseline_iterations),
            "num_failures": int(self.num_failures),
            "num_checkpoints": int(self.num_checkpoints),
            "num_restarts_from_scratch": int(self.num_restarts_from_scratch),
            "total_seconds": float(self.total_seconds),
            "productive_seconds": float(self.productive_seconds),
            "checkpoint_seconds": float(self.checkpoint_seconds),
            "recovery_seconds": float(self.recovery_seconds),
            "checkpoint_interval_seconds": float(self.checkpoint_interval_seconds),
            "mean_checkpoint_seconds": float(self.mean_checkpoint_seconds),
            "mean_recovery_seconds": float(self.mean_recovery_seconds),
            "mean_compression_ratio": float(self.mean_compression_ratio),
            "residual_trace": [
                [int(it), float(res)] for it, res in self.residual_trace
            ],
            "info": {str(k): _json_scalar(v) for k, v in self.info.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FTRunReport":
        """Rebuild a report from :meth:`to_dict` output (or parsed JSON)."""
        return cls(
            scheme=str(data["scheme"]),
            method=str(data["method"]),
            converged=bool(data["converged"]),
            total_iterations=int(data["total_iterations"]),
            baseline_iterations=int(data["baseline_iterations"]),
            num_failures=int(data["num_failures"]),
            num_checkpoints=int(data["num_checkpoints"]),
            num_restarts_from_scratch=int(data["num_restarts_from_scratch"]),
            total_seconds=float(data["total_seconds"]),
            productive_seconds=float(data["productive_seconds"]),
            checkpoint_seconds=float(data["checkpoint_seconds"]),
            recovery_seconds=float(data["recovery_seconds"]),
            checkpoint_interval_seconds=float(data["checkpoint_interval_seconds"]),
            mean_checkpoint_seconds=float(data["mean_checkpoint_seconds"]),
            mean_recovery_seconds=float(data["mean_recovery_seconds"]),
            mean_compression_ratio=float(data["mean_compression_ratio"]),
            residual_trace=[
                (int(it), float(res)) for it, res in data.get("residual_trace", [])
            ],
            info=dict(data.get("info", {})),
        )

