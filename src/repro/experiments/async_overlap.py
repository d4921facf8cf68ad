"""Async-overlap study: checkpoint-write overhead with a drained I/O channel.

A scenario family beyond the paper: Section 5.4 (and the engine's default
``blocking`` write mode) charges every checkpoint write as a stop-the-world
stall, which is exactly the cost lossy compression exists to shrink.  Real
multilevel FT stacks hide most of it by draining the storage write
asynchronously while compute continues.  This experiment sweeps
``write_mode`` for each checkpointing scheme under injected failures and
reports the fault-tolerance overhead reduction the overlap buys — i.e.
how much of lossy checkpointing's advantage survives once traditional
checkpoints stop blocking too.

Run it from the shell as ``python -m repro.campaign --preset
async-vs-blocking`` (raw cells) or via :func:`run_async_overlap` here
(aggregated reduction table); ``examples/async_vs_blocking_study.py`` is the
single-interval engine-level variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.campaign.executor import run_campaign
from repro.campaign.spec import RunSpec
from repro.engine.scenario import WRITE_MODES
from repro.experiments.config import ExperimentConfig, SMALL_CONFIG, campaign_fields
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table

__all__ = [
    "AsyncOverlapResult",
    "async_overlap_cells",
    "run_async_overlap",
    "async_overlap_table",
]

STUDY_SCHEMES = ("traditional", "lossless", "lossy")


@dataclass
class AsyncOverlapResult:
    """Mean overhead fraction per (scheme, write mode) coordinate."""

    method: str
    repetitions: int
    #: ``(scheme, write_mode) -> mean overhead fraction``.
    overhead: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Mean async I/O-channel drain seconds per scheme.
    drain_seconds: Dict[str, float] = field(default_factory=dict)
    #: Mean dirty (failure-interrupted) drains per async run, per scheme.
    dirty_checkpoints: Dict[str, float] = field(default_factory=dict)

    def reduction(self, scheme: str) -> float:
        """Fractional overhead reduction of async vs blocking for a scheme."""
        blocking = self.overhead[(scheme, "blocking")]
        asynchronous = self.overhead[(scheme, "async")]
        if blocking == 0.0:
            return 0.0
        return (blocking - asynchronous) / blocking


def async_overlap_cells(
    config: ExperimentConfig,
    method: str = "jacobi",
    *,
    schemes: Sequence[str] = STUDY_SCHEMES,
    repetitions: int = 3,
) -> List[RunSpec]:
    """The study's campaign cells: write_mode x scheme x repetition.

    Seeds are paired on purpose: the async and blocking cells of one
    (scheme, repetition) coordinate share a failure seed, so the comparison
    is same-failure-stream rather than two independent draws.
    """
    cells: List[RunSpec] = []
    for scheme in schemes:
        for rep in range(repetitions):
            # The "measured" salt keeps every cell's historical seed.
            seed = derive_seed(
                config.seed, "async-overlap", method, scheme, "measured", rep
            )
            for mode in WRITE_MODES:
                cells.append(
                    RunSpec(
                        kind="ft",
                        scheme=scheme,
                        error_bound=config.error_bound,
                        adaptive=(scheme == "lossy" and method == "gmres"),
                        mtti_seconds=config.mtti_seconds,
                        write_mode=mode,
                        repetition=rep,
                        seed=seed,
                        **campaign_fields(config, method),
                    )
                )
    return cells


def run_async_overlap(
    config: ExperimentConfig = SMALL_CONFIG,
    method: str = "jacobi",
    *,
    schemes: Sequence[str] = STUDY_SCHEMES,
    repetitions: int = 3,
    n_workers: int = 1,
    cache=None,
) -> AsyncOverlapResult:
    """Execute the sweep and aggregate the per-coordinate mean overheads."""
    cells = async_overlap_cells(
        config, method, schemes=schemes, repetitions=repetitions
    )
    outcome = run_campaign(cells, n_workers=n_workers, cache=cache)
    result = AsyncOverlapResult(method=method, repetitions=int(repetitions))
    overheads: Dict[Tuple[str, str], List[float]] = {}
    drains: Dict[str, List[float]] = {}
    dirty: Dict[str, List[float]] = {}
    for cell, cell_result in zip(outcome.cells(), outcome.results()):
        key = (cell.scheme, cell.write_mode)
        overheads.setdefault(key, []).append(float(cell_result["overhead_fraction"]))
        if cell.write_mode == "async":
            info = cell_result["report"]["info"]
            drains.setdefault(cell.scheme, []).append(
                float(info.get("io_drain_seconds", 0.0))
            )
            dirty.setdefault(cell.scheme, []).append(
                float(info.get("num_dirty_checkpoints", 0))
            )
    result.overhead = {key: float(np.mean(v)) for key, v in overheads.items()}
    result.drain_seconds = {key: float(np.mean(v)) for key, v in drains.items()}
    result.dirty_checkpoints = {key: float(np.mean(v)) for key, v in dirty.items()}
    return result


def async_overlap_table(result: AsyncOverlapResult) -> str:
    """Render the per-scheme overhead reduction."""
    rows = []
    for scheme in sorted({scheme for scheme, _ in result.overhead}):
        blocking = result.overhead[(scheme, "blocking")]
        asynchronous = result.overhead[(scheme, "async")]
        rows.append(
            [
                scheme,
                f"{100 * blocking:.1f}%",
                f"{100 * asynchronous:.1f}%",
                f"{100 * result.reduction(scheme):.1f}%",
                f"{result.drain_seconds.get(scheme, 0.0):.0f}",
                f"{result.dirty_checkpoints.get(scheme, 0.0):.1f}",
            ]
        )
    return format_table(
        ["scheme", "blocking ovh", "async ovh", "reduction", "drain (s)", "dirty"],
        rows,
        title=(
            f"Async overlap study — {result.method}, "
            f"{result.repetitions} repetition(s)"
        ),
    )
