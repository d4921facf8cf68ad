"""Shared characterization helpers used by Table 3 and Figures 4-8, 10.

The paper first measures the *mean size and time of one checkpoint/recovery*
for every method/scheme at a fixed checkpoint frequency (Section 5.3), and
then feeds those numbers into the optimal-interval experiments (Section 5.4).
These helpers reproduce that two-step methodology:

* :func:`measure_scheme_ratio` runs the solver failure-free, samples the
  iterate at a few points of the run and pushes each sample through the
  :class:`~repro.checkpoint.pipeline.CheckpointPipeline` — so the measured
  characterization covers the *whole* serialized payload (the iterate, the
  declared exact-resume vectors with their own per-variable ratios, the
  scalars and the serialization index), not just ``x``;
* :func:`scheme_timings` converts the historical single-ratio estimate into
  modeled paper-scale checkpoint/recovery seconds, while
  :func:`measured_checkpoint_bytes` / :func:`measured_scheme_timings` price
  the measured payload per variable (what Table 3 and Figures 4-6 report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.spec import RunSpec
from repro.checkpoint.pipeline import CheckpointPipeline, scaled_payload_bytes
from repro.cluster.machine import ClusterModel
from repro.core.model import CheckpointTimings
from repro.core.scale import ExperimentScale
from repro.core.schemes import CheckpointingScheme
from repro.engine.replay import ReplaySession, replay_enabled
from repro.solvers.base import IterativeSolver

__all__ = [
    "SchemeCharacterization",
    "measure_scheme_ratio",
    "scheme_timings",
    "measured_checkpoint_bytes",
    "measured_scheme_timings",
    "standard_schemes",
    "characterize_cells",
    "characterization_from_result",
]


@dataclass
class SchemeCharacterization:
    """Measured pipeline-payload behaviour of one scheme on one solver run."""

    scheme: str
    method: str
    #: Mean compression ratio of the iterate ``x`` (the paper's headline
    #: number, and what the historical modeled estimate multiplies out).
    mean_ratio: float
    ratios: List[float]
    baseline_iterations: int
    #: Mean measured ratio per full-length vector variable of the payload
    #: (``x`` plus the scheme's declared exact-resume vectors).
    variable_ratios: Dict[str, float] = field(default_factory=dict)
    #: Exactly-stored scalar/counter entries per payload.
    scalar_count: int = 1
    #: Mean serialization-index bytes per payload (absolute, scale-free).
    overhead_bytes: float = 0.0
    #: Serialized payload size of each sample (local, reduced-size bytes).
    payload_bytes: List[int] = field(default_factory=list)

    @property
    def min_ratio(self) -> float:
        """Smallest per-sample ratio (the most conservative checkpoint)."""
        return float(min(self.ratios)) if self.ratios else 1.0


def measure_scheme_ratio(
    solver: IterativeSolver,
    b: np.ndarray,
    scheme: CheckpointingScheme,
    *,
    method: Optional[str] = None,
    sample_fractions: Sequence[float] = (0.25, 0.5, 0.75),
    x0: Optional[np.ndarray] = None,
    baseline_iterations: Optional[int] = None,
) -> SchemeCharacterization:
    """Measure the scheme's full checkpoint payload on representative iterates.

    The solver is run once failure-free; at the given fractions of the run
    the full iteration state (iterate + declared resume state) is captured
    and pushed through a :class:`~repro.checkpoint.pipeline.
    CheckpointPipeline` snapshot under the scheme — including the resolved
    error-bound policy — yielding per-variable measured ratios and the
    serialized payload size.

    ``baseline_iterations`` is the iteration count of that failure-free
    solve when the caller already has it (a memoized baseline); the samples
    are then captured in a single solve instead of two.

    With trajectory replay on (:func:`repro.engine.replay.replay_enabled`),
    the failure-free solve goes through a
    :class:`~repro.engine.replay.ReplaySession` on the process-wide cache:
    the first characterization of a problem records it, sampled states
    included, and every later one — another scheme, the hint-free iteration
    count, each engine run's first phase — replays that recording instead of
    solving again.  The measured payloads are the same bytes either way.
    """
    b = np.asarray(b, dtype=np.float64)
    session = ReplaySession(solver, b) if replay_enabled() else None

    def solve(callback):
        if session is None:
            return solver.solve(b, x0=x0, callback=callback)
        start = np.zeros(solver.n) if x0 is None else np.asarray(x0, dtype=np.float64)
        return session.solve_phase(
            start, None, 0, None, callback or (lambda state: None)
        )

    if baseline_iterations is None:
        baseline_iterations = solve(None).iterations
    n_iters = max(1, baseline_iterations)
    targets = sorted(
        {max(1, min(n_iters - 1, int(round(f * n_iters)))) for f in sample_fractions}
    ) or [1]

    snapshots: Dict[int, object] = {}

    def capture(state) -> None:
        if state.iteration in wanted:
            snapshots[state.iteration] = state
            if session is not None:
                # A sample is a checkpoint boundary: the recording keeps it
                # for every later replay of the trajectory.
                session.note_boundary_state(state)

    wanted = set(targets)
    solve(capture)

    b_norm = float(np.linalg.norm(b))
    pipeline = CheckpointPipeline(scheme, solver=solver)
    ratios: List[float] = []
    payload_bytes: List[int] = []
    per_variable: Dict[str, List[float]] = {}
    overheads: List[int] = []
    scalar_count = 1
    for iteration in targets:
        if iteration not in snapshots:
            continue
        state = snapshots[iteration]
        resume = (
            solver.capture_resume_state(state)
            if scheme.checkpoint_krylov_state
            else None
        )
        snap = pipeline.snapshot(
            state.x,
            iteration=state.iteration,
            resume_state=resume,
            residual_norm=state.residual_norm,
            b_norm=b_norm,
        )
        ratios.append(snap.ratio_of("x"))
        payload_bytes.append(snap.serialized_bytes)
        overheads.append(snap.overhead_bytes)
        scalar_count = sum(1 for v in snap.variables if v.kind != "vector")
        for name, ratio in snap.variable_ratios().items():
            per_variable.setdefault(name, []).append(ratio)
    if not ratios:
        ratios = [1.0]
    return SchemeCharacterization(
        scheme=scheme.name,
        method=method or solver.name,
        mean_ratio=float(np.mean(ratios)),
        ratios=ratios,
        baseline_iterations=baseline_iterations,
        variable_ratios={
            name: float(np.mean(values)) for name, values in per_variable.items()
        },
        scalar_count=int(scalar_count),
        overhead_bytes=float(np.mean(overheads)) if overheads else 0.0,
        payload_bytes=payload_bytes,
    )


def _timings(
    scheme: CheckpointingScheme,
    uncompressed: float,
    compressed: float,
    scale: ExperimentScale,
    cluster: ClusterModel,
) -> CheckpointTimings:
    """Checkpoint/recovery seconds of one payload on ``cluster``'s store."""
    return CheckpointTimings(
        checkpoint_seconds=cluster.checkpoint_seconds(
            uncompressed, compressed, compressed=scheme.uses_compression
        ),
        recovery_seconds=cluster.recovery_seconds(
            uncompressed,
            compressed,
            static_bytes=scale.static_bytes,
            compressed=scheme.uses_compression,
        ),
    )


def scheme_timings(
    scheme: CheckpointingScheme,
    method: str,
    ratio: float,
    scale: ExperimentScale,
    cluster: ClusterModel,
) -> CheckpointTimings:
    """Modeled paper-scale checkpoint and recovery seconds for one scheme.

    ``ratio`` is the measured compression ratio; the number of dynamic vectors
    follows the scheme (CG checkpoints ``x`` and ``p`` under exact schemes but
    only ``x`` under lossy checkpointing).  Storage is priced through
    ``cluster.profile`` — pass a cluster :meth:`~repro.engine.scenario.
    Scenario.priced_on` the run's store backend to estimate that store.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    uncompressed = scale.vector_bytes * scheme.dynamic_vector_count(method)
    return _timings(scheme, uncompressed, uncompressed / ratio, scale, cluster)


def measured_checkpoint_bytes(
    char: SchemeCharacterization,
    scale: ExperimentScale,
    *,
    fallback_vectors: int = 1,
) -> Tuple[float, float]:
    """``(uncompressed, compressed)`` bytes of one measured payload at scale.

    Every full-length vector is scaled by its *own* measured ratio (a
    BiCGSTAB-exact payload prices five differently-compressible vectors, not
    five copies of ``x``), via the same
    :func:`~repro.checkpoint.pipeline.scaled_payload_bytes` rule the engine
    prices runs with.  When the characterization predates per-variable
    measurement (e.g. a deserialized legacy result) it falls back to the
    single-ratio estimate over ``fallback_vectors`` full vectors — pass the
    scheme's ``dynamic_vector_count`` there, or the estimate undercounts
    every multi-vector exact payload.
    """
    if not char.variable_ratios:
        uncompressed = scale.vector_bytes * max(1, int(fallback_vectors))
        return uncompressed, uncompressed / max(char.mean_ratio, 1e-12)
    return scaled_payload_bytes(
        scale,
        char.variable_ratios,
        scalar_count=char.scalar_count,
        overhead_bytes=char.overhead_bytes,
    )


def measured_scheme_timings(
    scheme: CheckpointingScheme,
    char: SchemeCharacterization,
    scale: ExperimentScale,
    cluster: ClusterModel,
) -> CheckpointTimings:
    """Paper-scale checkpoint/recovery seconds of the measured payload.

    The measured counterpart of :func:`scheme_timings`: bytes come from
    :func:`measured_checkpoint_bytes` (per-variable serialized payload)
    instead of ``vector_bytes × dynamic_vector_count / ratio(x)``.
    """
    uncompressed, compressed = measured_checkpoint_bytes(
        char,
        scale,
        fallback_vectors=scheme.dynamic_vector_count(char.method),
    )
    return _timings(scheme, uncompressed, compressed, scale, cluster)


def standard_schemes(
    error_bound: float = 1e-4, *, adaptive_gmres: bool = True, method: str = "jacobi"
) -> List[CheckpointingScheme]:
    """The paper's three schemes, with the GMRES adaptive bound when relevant."""
    adaptive = adaptive_gmres and method == "gmres"
    return [
        CheckpointingScheme.traditional(),
        CheckpointingScheme.lossless(),
        CheckpointingScheme.lossy(error_bound, adaptive=adaptive),
    ]


def characterize_cells(
    config,
    method: str,
    *,
    schemes: Sequence[str] = ("traditional", "lossless", "lossy"),
    compressor: str = "sz",
) -> List[RunSpec]:
    """Campaign cells measuring each scheme's compression ratio for ``method``.

    One cell per scheme; mirrors :func:`standard_schemes` (the lossy scheme
    gets the adaptive Theorem-3 bound for GMRES).
    """
    from repro.experiments.config import campaign_fields

    return [
        RunSpec(
            kind="characterize",
            scheme=scheme,
            compressor=compressor,
            error_bound=config.error_bound,
            adaptive=(scheme == "lossy" and method == "gmres"),
            seed=config.seed,
            **campaign_fields(config, method),
        )
        for scheme in schemes
    ]


def characterization_from_result(result) -> SchemeCharacterization:
    """Rebuild a :class:`SchemeCharacterization` from a cell's JSON result.

    Strict: a missing field raises :class:`KeyError`, which the campaign's
    sub-result memo treats as a stale entry (a miss).
    """
    return SchemeCharacterization(
        scheme=str(result["scheme"]),
        method=str(result["method"]),
        mean_ratio=float(result["mean_ratio"]),
        ratios=[float(r) for r in result["ratios"]],
        baseline_iterations=int(result["baseline_iterations"]),
        variable_ratios={
            str(k): float(v) for k, v in result["variable_ratios"].items()
        },
        scalar_count=int(result["scalar_count"]),
        overhead_bytes=float(result["overhead_bytes"]),
        payload_bytes=[int(b) for b in result["payload_bytes"]],
    )
