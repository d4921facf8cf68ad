"""Execution of one campaign cell.

:func:`execute_cell` is the *only* entry point a worker process needs: it is a
module-level function of one picklable :class:`~repro.campaign.spec.RunSpec`
argument, so :class:`concurrent.futures.ProcessPoolExecutor` can ship cells to
workers directly.  Every handler returns a JSON-safe dictionary (what the
on-disk result cache stores), and every handler is a deterministic function of
the cell — the same cell always produces the same dictionary, which is what
makes the serial and parallel execution paths byte-identical.

Expensive sub-results that many cells share (the failure-free baseline of one
solver configuration, the compression-ratio characterization of one scheme)
are memoized at two levels.  Per worker process, ``functools.lru_cache`` keeps
the constructed objects live, so a campaign sweeping repetitions or scales
pays for each baseline/characterization at most once per worker.  Across
processes — and across campaign invocations — an optional on-disk
:class:`~repro.campaign.cache.MemoStore` (see :func:`configure_memo_store`)
holds the JSON form of each baseline/characterization, keyed by a SHA-256 of
the :func:`_problem_key`/:func:`_scheme_key` coordinates plus the
:data:`~repro.campaign.spec.CACHE_VERSION` salt: a fresh worker pool no
longer re-solves a baseline another worker (or yesterday's campaign) already
computed.  Floats survive the JSON round trip bit-exactly, so memo-served
cells stay byte-identical to cold ones.

Imports of the numerics and the experiment-harness modules are deliberately
lazy (inside the handlers): the experiment modules themselves import
:mod:`repro.campaign`, so the lazy imports keep the package import graph
acyclic in both directions, and a campaign served entirely from the result
cache never loads NumPy or SciPy.  :func:`load_stack` imports them all at once
for the executor, when some cell must run.

Setting the :data:`PROFILE_ENV` environment variable (``REPRO_PROFILE``) to a
directory wraps every executed cell in :mod:`cProfile` and dumps one pstats
file per cell there — the ``--profile`` flag of ``python -m repro.campaign``
sets it for you.  Cache hits never execute a handler, so they leave no
profile; profile with ``--no-cache`` to capture every cell.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

__all__ = ["execute_cell", "configure_memo_store", "load_stack", "PROFILE_ENV"]

#: Environment variable naming the directory cell profiles are dumped into.
PROFILE_ENV = "REPRO_PROFILE"


# -- on-disk memoization of shared sub-results --------------------------------

_MEMO_STORE = None


def configure_memo_store(directory: "str | os.PathLike | None") -> None:
    """Point this process at an on-disk sub-result memo (``None`` disables).

    The executor calls this in the parent for serial runs and through the
    worker initializer for pools, so every process of one campaign shares the
    same memo directory (by convention ``<result-cache>/memos``).  The
    in-process ``lru_cache`` layers stay in front either way; disabling only
    stops disk traffic, it never invalidates live objects.
    """
    global _MEMO_STORE
    if directory is None:
        _MEMO_STORE = None
        return
    from repro.campaign.cache import MemoStore

    _MEMO_STORE = MemoStore(directory)


def _memo_digest(kind: str, key: Tuple) -> str:
    """Content address of one sub-result: canonical JSON + version salt."""
    from repro.campaign.spec import CACHE_VERSION

    canonical = json.dumps(
        [kind, CACHE_VERSION, list(key)], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _baseline_to_dict(baseline) -> Dict[str, object]:
    return {
        "iterations": int(baseline.iterations),
        "converged": bool(baseline.converged),
        "residual_norms": [float(r) for r in baseline.residual_norms],
        "final_residual_norm": float(baseline.final_residual_norm),
        "x": [float(v) for v in baseline.x],
    }


def _baseline_from_dict(payload):
    import numpy as np

    from repro.engine import BaselineRun

    return BaselineRun(
        iterations=int(payload["iterations"]),
        converged=bool(payload["converged"]),
        residual_norms=[float(r) for r in payload["residual_norms"]],
        final_residual_norm=float(payload["final_residual_norm"]),
        x=np.asarray(payload["x"], dtype=np.float64),
    )


def _characterization_to_dict(char) -> Dict[str, object]:
    return {
        "scheme": str(char.scheme),
        "method": str(char.method),
        "mean_ratio": float(char.mean_ratio),
        "ratios": [float(r) for r in char.ratios],
        "baseline_iterations": int(char.baseline_iterations),
        "variable_ratios": {str(k): float(v) for k, v in char.variable_ratios.items()},
        "scalar_count": int(char.scalar_count),
        "overhead_bytes": float(char.overhead_bytes),
        "payload_bytes": [int(b) for b in char.payload_bytes],
    }


def _memoized(kind: str, key: Tuple, compute, encode, decode):
    """``compute()``, served from the on-disk memo under ``(kind, key)``.

    A hit is ``decode``d from its JSON form; a miss (or a stale/foreign entry
    ``decode`` rejects) is computed and stored ``encode``d.
    """
    store = _MEMO_STORE
    if store is None:
        return compute()
    digest = _memo_digest(kind, key)
    payload = store.get(digest)
    if payload is not None:
        try:
            return decode(payload)
        except (KeyError, TypeError, ValueError):
            pass  # stale/foreign entry: recompute and overwrite below
    value = compute()
    store.put(digest, encode(value))
    return value


def _build_problem_and_solver(cell) -> Tuple[object, object]:
    """Construct the (problem, solver) pair one cell runs on.

    Delegates to the canonical builders in :mod:`repro.experiments.config` so
    worker-executed cells always reconstruct exactly what the in-process
    experiment path would build — the cell's fields are mapped back onto an
    :class:`~repro.experiments.config.ExperimentConfig` (the inverse of
    :func:`~repro.experiments.config.campaign_fields`).
    """
    from repro.experiments.config import (
        ExperimentConfig,
        kkt_problem,
        kkt_solver,
        method_problem,
        method_solver,
    )

    config = ExperimentConfig(
        grid_n=cell.grid_n,
        kkt_n=cell.kkt_n,
        gmres_restart=cell.gmres_restart,
        max_iter=cell.max_iter,
        seed=cell.problem_seed,
        **({"rtol": {cell.method: cell.rtol}} if cell.rtol is not None else {}),
    )
    if cell.method == "kkt":
        problem = kkt_problem(config)
        return problem, kkt_solver(config, problem)
    problem = method_problem(config, cell.method)
    return problem, method_solver(config, cell.method, problem)


def _build_scheme(cell):
    """The checkpointing scheme one cell runs under."""
    from repro.core.schemes import CheckpointingScheme

    if cell.scheme == "traditional":
        return CheckpointingScheme.traditional()
    if cell.scheme == "lossless":
        return CheckpointingScheme.lossless()
    if cell.scheme == "lossy":
        # ``adaptive`` (the paper's GMRES default) upgrades the *default*
        # fixed policy to Theorem 3; an explicitly non-default policy axis
        # wins, so a policy sweep never runs mislabeled configurations.
        policy = getattr(cell, "error_bound_policy", "fixed")
        if cell.adaptive and policy == "fixed":
            policy = "residual_adaptive"
        return CheckpointingScheme.lossy(
            cell.error_bound, compressor=cell.compressor, bound_policy=policy
        )
    raise ValueError(f"unknown scheme {cell.scheme!r}")


def _problem_key(cell) -> Tuple:
    """The part of a cell that determines its problem/solver/baseline."""
    return (
        cell.method,
        cell.grid_n,
        cell.kkt_n,
        cell.problem_seed,
        cell.rtol,
        cell.gmres_restart,
        cell.max_iter,
    )


def _scheme_key(cell) -> Tuple:
    """The part of a cell that additionally determines its characterization.

    Only the lossy scheme reads the compressor, error-bound and policy axes
    (:func:`_build_scheme`); an exact scheme's key holds ``None`` there, so
    it is characterized once per problem whatever those axes sweep.
    """
    if cell.scheme != "lossy":
        return _problem_key(cell) + (cell.scheme, None, None, None, None)
    return _problem_key(cell) + (
        cell.scheme,
        cell.compressor,
        cell.error_bound,
        cell.adaptive,
        getattr(cell, "error_bound_policy", "fixed"),
    )


@lru_cache(maxsize=64)
def _cached_setup(
    method: str,
    grid_n: int,
    kkt_n: int,
    problem_seed: int,
    rtol: Optional[float],
    gmres_restart: int,
    max_iter: int,
):
    """Problem, solver and failure-free baseline for one configuration."""
    from repro.engine import run_failure_free

    cfg = SimpleNamespace(
        method=method,
        grid_n=grid_n,
        kkt_n=kkt_n,
        problem_seed=problem_seed,
        rtol=rtol,
        gmres_restart=gmres_restart,
        max_iter=max_iter,
    )
    problem, solver = _build_problem_and_solver(cfg)
    # The problem/solver construction is cheap; the baseline solve is the
    # expensive part worth persisting across processes and invocations.
    baseline = _memoized(
        "baseline",
        (method, grid_n, kkt_n, problem_seed, rtol, gmres_restart, max_iter),
        lambda: run_failure_free(solver, problem.b),
        _baseline_to_dict,
        _baseline_from_dict,
    )
    return problem, solver, baseline


@lru_cache(maxsize=256)
def _cached_characterization(
    method: str,
    grid_n: int,
    kkt_n: int,
    problem_seed: int,
    rtol: Optional[float],
    gmres_restart: int,
    max_iter: int,
    scheme: str,
    compressor: str,
    error_bound: float,
    adaptive: bool,
    error_bound_policy: str,
):
    """Measured pipeline-payload characterization of one scheme/config."""
    from repro.experiments.characterize import (
        characterization_from_result,
        measure_scheme_ratio,
    )

    def measure():
        problem, solver, baseline = _cached_setup(
            method, grid_n, kkt_n, problem_seed, rtol, gmres_restart, max_iter
        )
        scheme_obj = _build_scheme(
            SimpleNamespace(
                scheme=scheme,
                compressor=compressor,
                error_bound=error_bound,
                adaptive=adaptive,
                error_bound_policy=error_bound_policy,
            )
        )
        return measure_scheme_ratio(
            solver, problem.b, scheme_obj, method=method,
            baseline_iterations=baseline.iterations,
        )

    return _memoized(
        "characterization",
        (
            method, grid_n, kkt_n, problem_seed, rtol, gmres_restart, max_iter,
            scheme, compressor, error_bound, adaptive, error_bound_policy,
        ),
        measure,
        _characterization_to_dict,
        characterization_from_result,
    )


def _setup(cell):
    return _cached_setup(*_problem_key(cell))


def _characterization(cell):
    return _cached_characterization(*_scheme_key(cell))


# -- kind handlers ------------------------------------------------------------
def _run_model(cell) -> Dict[str, object]:
    """Pure performance-model evaluation (Fig. 1): Eq. (5) at one grid point."""
    from repro.core.model import expected_overhead_fraction

    lam = cell.param("lam")
    tckp = cell.param("tckp")
    if lam is None or tckp is None:
        raise ValueError(
            "a 'model' cell needs 'lam' (failures/s) and 'tckp' (checkpoint "
            f"seconds) in params, got {cell.params!r}"
        )
    lam = float(lam)
    tckp = float(tckp)
    return {"lam": lam, "tckp": tckp, "overhead_fraction": expected_overhead_fraction(lam, tckp)}


def _run_solve(cell) -> Dict[str, object]:
    """One plain failure-free solve (Fig. 3's KKT system)."""
    problem, solver = _build_problem_and_solver(cell)
    result = solver.solve(problem.b)
    return {
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "relative_residual": float(result.relative_residual),
    }


def _run_characterize(cell) -> Dict[str, object]:
    """Measure one scheme's pipeline payload on representative iterates."""
    char = _characterization(cell)
    # The memoized form is the measured-payload composition (per-vector
    # ratios plus the absolute scalar/index bytes one serialized checkpoint
    # carries); the cell result adds the derived minimum.
    return {**_characterization_to_dict(char), "min_ratio": float(char.min_ratio)}


def _run_extra_iterations(cell) -> Dict[str, object]:
    """Fig. 2 cell: random lossy restarts, count extra iterations."""
    from repro.compression.base import make_compressor
    from repro.core.extra_iterations import measure_extra_iterations

    problem, solver, _ = _setup(cell)
    compressor = make_compressor(cell.compressor, error_bound=cell.error_bound)
    trials = int(cell.param("trials", 10))
    study = measure_extra_iterations(
        solver, problem.b, compressor, trials=trials, seed=cell.seed
    )
    return {
        "baseline_iterations": int(study.baseline_iterations),
        "trials": [
            {
                "restart_iteration": int(t.restart_iteration),
                "iterations_after_restart": int(t.iterations_after_restart),
                "extra_iterations": int(t.extra_iterations),
                "compression_ratio": float(t.compression_ratio),
                "converged": bool(t.converged),
            }
            for t in study.trials
        ],
    }


def _run_trajectory(cell) -> Dict[str, object]:
    """Fig. 9 cell: residual trace with lossy restarts at given fractions."""
    from repro.compression.base import make_compressor
    from repro.experiments.fig9_jacobi_trajectories import solve_with_restarts

    problem, solver, baseline = _setup(cell)
    fractions = cell.param("restart_fractions", ())
    n = baseline.iterations
    if not fractions:
        trace = [[int(i), float(r)] for i, r in enumerate(baseline.residual_norms)]
        return {
            "baseline_iterations": int(n),
            "restart_iterations": [],
            "trace": trace,
            "total_iterations": int(n),
        }
    compressor = make_compressor(cell.compressor, error_bound=cell.error_bound)
    points = [max(1, min(n - 1, int(round(float(f) * n)))) for f in fractions]
    trace, total = solve_with_restarts(solver, problem.b, compressor, points)
    return {
        "baseline_iterations": int(n),
        "restart_iterations": [int(p) for p in points],
        "trace": [[int(i), float(r)] for i, r in trace],
        "total_iterations": int(total),
    }


def _run_ft(cell) -> Dict[str, object]:
    """One failure-injected fault-tolerant run (Figs. 8, 10 and the CLI demo).

    The checkpoint interval follows the paper's two-step methodology: the
    scheme's checkpoint cost is characterized first, then Young's formula maps
    it to the interval (unless the cell pins an explicit interval).  The
    cell's scenario coordinates (failure model x recovery levels x write mode
    x store backend) select the engine regime; the default is the paper's
    blocking-write Poisson/PFS setup, while ``write_mode="async"`` runs the
    two-channel timeline with overlapped drains of full payloads.
    Every regime prices checkpoints from the measured pipeline payload.
    """
    from repro.cluster.machine import ClusterModel
    from repro.core.model import young_interval
    from repro.core.scale import paper_scale
    from repro.engine import FaultToleranceEngine, Scenario
    from repro.experiments.characterize import (
        measured_checkpoint_bytes,
        measured_scheme_timings,
    )

    problem, solver, baseline = _setup(cell)
    scheme = _build_scheme(cell)
    char = _characterization(cell)

    scale = paper_scale(cell.num_processes)
    scenario = Scenario(
        failure_model=cell.failure_model,
        recovery_levels=cell.recovery_levels,
        write_mode=cell.write_mode,
        store_backend=cell.store_backend,
    )
    # The a-priori estimate (Young interval, reported estimated seconds, the
    # async capture/drain floor) is priced from the measured payload *and
    # through the store backend's profile* the engine will charge, so the
    # interval is optimized for the cost the run actually pays.
    cluster = scenario.priced_on(ClusterModel(num_processes=cell.num_processes))
    timings = measured_scheme_timings(scheme, char, scale, cluster)
    ckpt_bytes = measured_checkpoint_bytes(
        char, scale, fallback_vectors=scheme.dynamic_vector_count(cell.method)
    )
    asynchronous = cell.write_mode == "async"
    capture_seconds = drain_seconds = None
    if asynchronous:
        capture_seconds = cluster.capture_seconds(
            ckpt_bytes[0], ckpt_bytes[1], compressed=scheme.uses_compression
        )
        drain_seconds = cluster.drain_seconds(ckpt_bytes[1])
    iteration_seconds = cluster.calibrated_iteration_time(
        cell.method, baseline.iterations
    )
    interval: Optional[float] = cell.checkpoint_interval_seconds
    if interval is None:
        if cell.mtti_seconds is None:
            raise ValueError(
                "a failure-free ft cell needs an explicit checkpoint interval"
            )
        if asynchronous:
            # The solver's per-checkpoint stall is the capture plus the
            # interference the drain inflicts on overlapped compute
            # (``interference x drain`` seconds per checkpoint), so Young's
            # formula is applied to that sum — floored by the drain time,
            # since checkpointing faster than the I/O channel can flush just
            # grows the dirty-write queue without adding recovery points.
            stall = capture_seconds + cluster.async_interference * drain_seconds
            interval = max(young_interval(stall, cell.mtti_seconds), drain_seconds)
        else:
            interval = timings.young_interval(cell.mtti_seconds)

    runner = FaultToleranceEngine(
        solver,
        problem.b,
        scheme,
        cluster=cluster,
        scale=scale,
        mtti_seconds=cell.mtti_seconds,
        checkpoint_interval_seconds=interval,
        iteration_seconds=iteration_seconds,
        method=cell.method,
        baseline=baseline,
        seed=cell.seed,
        scenario=scenario,
    )
    report = runner.run()
    result_extra = {}
    if asynchronous:
        result_extra = {
            "estimated_capture_seconds": float(capture_seconds),
            "estimated_drain_seconds": float(drain_seconds),
        }
    return {
        "report": report.to_dict(),
        "overhead_fraction": float(report.overhead_fraction),
        "extra_iterations": int(report.extra_iterations),
        "mean_ratio": float(char.mean_ratio),
        "estimated_checkpoint_seconds": float(timings.checkpoint_seconds),
        "estimated_recovery_seconds": float(timings.recovery_seconds),
        **result_extra,
        "interval_seconds": float(interval),
        "iteration_seconds": float(iteration_seconds),
        "baseline_iterations": int(baseline.iterations),
        "failure_model": str(cell.failure_model),
        "recovery_levels": str(cell.recovery_levels),
        "write_mode": str(cell.write_mode),
        "store_backend": str(cell.store_backend),
    }


_HANDLERS = {
    "ft": _run_ft,
    "characterize": _run_characterize,
    "extra_iterations": _run_extra_iterations,
    "trajectory": _run_trajectory,
    "solve": _run_solve,
    "model": _run_model,
}


def _dump_profile(profiler, cell) -> Path:
    """Write one cell's profile as ``<kind>-<method>-<scheme>-<hash>.pstats``.

    The cache-key prefix makes names collision-free across a grid (two cells
    differing only in, say, the seed still get distinct files); the readable
    prefix makes ``pstats.Stats`` sessions navigable without a lookup table.
    """
    root = Path(os.environ[PROFILE_ENV])
    root.mkdir(parents=True, exist_ok=True)
    parts = [cell.kind, cell.method or "none", cell.scheme or "none"]
    path = root / f"{'-'.join(parts)}-{cell.cache_key()[:12]}.pstats"
    profiler.dump_stats(path)
    return path


def load_stack() -> None:
    """Import the modules the handlers run on (NumPy, SciPy, the engine).

    The executor calls this once, in the parent, when a cell must run: before
    its serial loop, and before it builds a worker pool, so forked workers
    inherit the loaded modules instead of each importing them again.
    """
    import repro.engine  # noqa: F401
    import repro.experiments.characterize  # noqa: F401


def execute_cell(cell) -> Dict[str, object]:
    """Execute one campaign cell and return its JSON-safe result dictionary.

    When :data:`PROFILE_ENV` names a directory, the handler runs under
    :mod:`cProfile` and its stats are dumped there (one pstats artifact per
    executed cell) — the result dictionary is unaffected.
    """
    try:
        handler = _HANDLERS[cell.kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {cell.kind!r}; known: {sorted(_HANDLERS)}")
    if os.environ.get(PROFILE_ENV):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = handler(cell)
        finally:
            profiler.disable()
            _dump_profile(profiler, cell)
    else:
        result = handler(cell)
    if not isinstance(result, dict):  # pragma: no cover - handler contract
        raise TypeError(f"handler for {cell.kind!r} returned {type(result)!r}")
    return result
