"""Declarative description of an experiment campaign.

A campaign is a grid of independent *cells*; each cell is one fully
self-contained :class:`RunSpec` — everything a worker process needs to execute
the cell deterministically (problem size, solver tolerances, checkpointing
scheme, failure seed, ...).  The same cell always produces the same result, so
cells can be

* executed in any order and on any number of worker processes
  (:mod:`repro.campaign.executor`), and
* cached on disk content-addressed by the hash of their spec
  (:mod:`repro.campaign.cache`).

:class:`CampaignSpec` is the declarative grid {kind x method x scheme x
compressor x error bound x error-bound policy x interval x MTTI x scenario
(failure model x recovery levels x write mode x store backend) x scale x
repetition}
that expands into the cell list;
figure modules that need a heterogeneous or specially seeded cell list pass
explicit ``cells`` instead of grid axes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import axes
from repro.utils.rng import derive_seed

__all__ = ["RunSpec", "CampaignSpec", "KINDS"]

#: Cell kinds understood by :func:`repro.campaign.execute.execute_cell`.
KINDS = (
    "ft",               # failure-injected FaultToleranceEngine run -> FTRunReport
    "characterize",     # compression-ratio characterization of one scheme
    "extra_iterations", # Fig. 2 random-restart extra-iteration study
    "trajectory",       # Fig. 9 residual trace with scripted lossy restarts
    "solve",            # plain failure-free solve (Fig. 3 KKT system)
    "model",            # pure performance-model evaluation (Fig. 1)
)

#: Bumped when a change to the executor invalidates previously cached results.
#: 2: the v1 block codec changed SZ/ZFP payload sizes, hence every cached
#: compression ratio and the sizes/overheads derived from them.
#: 3: the discrete-event engine added the scenario axis (failure model x
#: recovery levels) to ft cells and fixed give-up/overdue-checkpoint
#: accounting, changing some cached FT reports.
#: 4: the checkpoint pipeline made measured-payload costing the default (ft
#: reports price per-variable serialized bytes) and characterization cells
#: now carry per-variable ratios/overhead, changing cached cell results.
#: 5: the two-channel engine timeline added the write-mode axis (blocking vs
#: async overlapped drains with incremental delta payloads) to ft cells.
#: 6: async captures gained staging-slot backpressure (MachineSpec
#: .async_staging_slots): drains slower than the checkpoint interval no
#: longer grow the dirty queue without bound, changing async ft reports.
#: 7: pluggable checkpoint-store backends added the store-backend axis
#: (pfs/memory/disk/object/chunked) to ft cells; non-default backends price
#: writes/drains/reads through their StoreProfile and chunked backends dedup
#: shipped bytes, changing those cells' reports (pfs cells are unchanged).
#: 8: payload format v2 (byte-shuffled, sharded, entropy-gated compression):
#: lossless and SZ payload bytes changed (smaller), so every cell's measured
#: payload sizes, ratios and checkpoint costs changed with them.
#: 9: one storage-cost algebra — the a-priori Young interval and estimated
#: seconds of non-pfs store-backend cells are priced through the backend's
#: StoreProfile (they were priced through the PFS), and fti x non-pfs cells
#: price levels as profile seconds x cost multiplier (last-ulp drift).
#: 10: ZFP writes payload format v2 (coefficient byte planes in the sharded
#: frame) at DEFLATE level 2: zfp cells' measured payload bytes, ratios and
#: checkpoint costs changed (reconstructions, hence iteration counts, did not).
#: 11: async cells ship full payloads (no delta chains): their drains move,
#: and their recoveries read, each checkpoint's own bytes.
#: 12: lossy compressors receive ``x`` on the operator's stencil grid and SZ
#: predicts along its axes: lossy cells' payload bytes, ratios and checkpoint
#: costs changed (zfp ones by the x blob's longer shape record); the
#: quantized codes, hence every reconstruction, did not.
#: 13: a result-cache entry is the cell's report fragment behind a header
#: of its digest, length and scalars (memos carry the same header); cell
#: results themselves did not change.
CACHE_VERSION = 13

_Params = Tuple[Tuple[str, object], ...]


def _freeze_params(params) -> _Params:
    """Normalise a params mapping/sequence into a sorted tuple of pairs."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, dict) else params
    frozen = []
    for key, value in items:
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        frozen.append((str(key), value))
    return tuple(sorted(frozen))


@dataclass(frozen=True)
class RunSpec:
    """One independent campaign cell.

    Attributes
    ----------
    kind:
        What to execute; one of :data:`KINDS`.
    method:
        Solver/method name (``jacobi``/``gmres``/``cg``/... or ``kkt`` for the
        Fig. 3 solve cell).
    scheme:
        Checkpointing scheme name (``traditional``/``lossless``/``lossy``).
    compressor:
        Lossy compressor for lossy schemes (``sz`` or ``zfp``).
    error_bound:
        Pointwise-relative error bound of the lossy compressor.
    adaptive:
        Use the Theorem-3 adaptive bound (the paper's GMRES setting);
        shorthand that overrides ``error_bound_policy`` with
        ``"residual_adaptive"``.
    error_bound_policy:
        How the lossy bound is chosen at each checkpoint: ``"fixed"``,
        ``"value_range"`` or ``"residual_adaptive"`` (see
        :mod:`repro.compression.errorbounds`).
    write_mode:
        Which timeline checkpoint writes run on: ``"blocking"`` (the paper's
        stop-the-world write, the default) or ``"async"`` (overlapped
        I/O-channel drains of full payloads; see
        :mod:`repro.engine.scenario`).
    num_processes:
        Paper-scale process count the cell is accounted at.
    mtti_seconds:
        Mean time to interruption of the injected failures (``None`` disables
        failures).
    failure_model:
        Failure-arrival model of the injected failures (``poisson``, the
        paper's process, or ``weibull``/``bursty``; see
        :mod:`repro.cluster.failures`).
    recovery_levels:
        Where checkpoints live: ``pfs`` (the paper's L4-only pricing) or
        ``fti`` (the multilevel FTI cycle with per-level costs/survival).
    checkpoint_interval_seconds:
        Explicit interval; ``None`` applies Young's formula to the
        characterized checkpoint cost.
    repetition:
        Repetition index (axis only; the entropy lives in ``seed``).
    seed:
        Seed of the stochastic part of the cell (failure injection, random
        restart points).
    problem_seed:
        Seed of the synthetic problem construction.
    grid_n / kkt_n:
        Local (reduced) problem sizes.
    rtol:
        Solver convergence tolerance; ``None`` uses the per-method paper value.
    params:
        Kind-specific extras as a tuple of ``(name, value)`` pairs (e.g.
        ``trials`` for extra-iteration cells, ``restart_fractions`` for
        trajectory cells, ``lam``/``tckp`` for model cells).
    """

    kind: str = "ft"
    method: str = "jacobi"
    scheme: str = "lossy"
    compressor: str = "sz"
    error_bound: float = 1e-4
    adaptive: bool = False
    error_bound_policy: str = "fixed"
    num_processes: int = 2048
    mtti_seconds: Optional[float] = 3600.0
    failure_model: str = "poisson"
    recovery_levels: str = "pfs"
    write_mode: str = "blocking"
    store_backend: str = "pfs"
    checkpoint_interval_seconds: Optional[float] = None
    repetition: int = 0
    seed: int = 2018
    problem_seed: int = 2018
    grid_n: int = 12
    kkt_n: int = 6
    rtol: Optional[float] = None
    gmres_restart: int = 30
    max_iter: int = 100000
    params: _Params = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown cell kind {self.kind!r}; known: {KINDS}")
        # The campaign vocabulary leaves out "scripted" failures: a cell
        # cannot carry the failure times they need, so it would silently run
        # something else.
        for name, label, known in (
            ("method", "method", axes.METHODS),
            ("failure_model", "failure model", axes.CAMPAIGN_FAILURE_MODELS),
            ("recovery_levels", "recovery levels", axes.RECOVERY_LEVELS),
            ("write_mode", "write mode", axes.WRITE_MODES),
            ("store_backend", "store backend", axes.STORE_BACKENDS),
            ("error_bound_policy", "error-bound policy", axes.BOUND_POLICIES),
        ):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"unknown {label} {value!r}; known: {known}")
        object.__setattr__(self, "params", _freeze_params(self.params))

    def param(self, name: str, default=None):
        """Look up one kind-specific parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation."""
        return {
            "kind": self.kind,
            "method": self.method,
            "scheme": self.scheme,
            "compressor": self.compressor,
            "error_bound": float(self.error_bound),
            "adaptive": bool(self.adaptive),
            "error_bound_policy": self.error_bound_policy,
            "num_processes": int(self.num_processes),
            "mtti_seconds": None if self.mtti_seconds is None else float(self.mtti_seconds),
            "failure_model": self.failure_model,
            "recovery_levels": self.recovery_levels,
            "write_mode": self.write_mode,
            "store_backend": self.store_backend,
            "checkpoint_interval_seconds": (
                None
                if self.checkpoint_interval_seconds is None
                else float(self.checkpoint_interval_seconds)
            ),
            "repetition": int(self.repetition),
            "seed": int(self.seed),
            "problem_seed": int(self.problem_seed),
            "grid_n": int(self.grid_n),
            "kkt_n": int(self.kkt_n),
            "rtol": None if self.rtol is None else float(self.rtol),
            "gmres_restart": int(self.gmres_restart),
            "max_iter": int(self.max_iter),
            "params": [[k, list(v) if isinstance(v, tuple) else v] for k, v in self.params],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        """Rebuild a cell from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        data["params"] = _freeze_params(data.get("params"))
        return cls(**data)

    def cache_key(self) -> str:
        """Content hash identifying this cell in the result cache."""
        payload = json.dumps(
            {"version": CACHE_VERSION, "spec": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative grid of campaign cells.

    The grid axes (methods x schemes x compressors x error bounds x intervals
    x MTTIs x process counts x repetitions) expand into one :class:`RunSpec`
    per combination; each cell's failure seed is derived deterministically
    from the campaign ``seed`` and the cell's coordinates, so re-expanding the
    same spec always yields the same cells.  When ``cells`` is non-empty the
    grid axes are ignored and the explicit cell list is used as-is.
    """

    name: str = "campaign"
    kind: str = "ft"
    methods: Tuple[str, ...] = ("jacobi",)
    schemes: Tuple[str, ...] = ("lossy",)
    compressors: Tuple[str, ...] = ("sz",)
    error_bounds: Tuple[float, ...] = (1e-4,)
    error_bound_policies: Tuple[str, ...] = ("fixed",)
    checkpoint_intervals: Tuple[Optional[float], ...] = (None,)
    mttis: Tuple[Optional[float], ...] = (3600.0,)
    failure_models: Tuple[str, ...] = ("poisson",)
    recovery_levels: Tuple[str, ...] = ("pfs",)
    write_modes: Tuple[str, ...] = ("blocking",)
    store_backends: Tuple[str, ...] = ("pfs",)
    process_counts: Tuple[int, ...] = (2048,)
    repetitions: int = 1
    seed: int = 2018
    grid_n: int = 12
    kkt_n: int = 6
    gmres_restart: int = 30
    max_iter: int = 100000
    rtols: Tuple[Tuple[str, float], ...] = ()
    params: _Params = ()
    cells: Tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "compressors", tuple(self.compressors))
        object.__setattr__(self, "error_bounds", tuple(float(e) for e in self.error_bounds))
        object.__setattr__(
            self, "error_bound_policies", tuple(self.error_bound_policies)
        )
        object.__setattr__(self, "checkpoint_intervals", tuple(self.checkpoint_intervals))
        object.__setattr__(self, "mttis", tuple(self.mttis))
        object.__setattr__(self, "failure_models", tuple(self.failure_models))
        object.__setattr__(self, "recovery_levels", tuple(self.recovery_levels))
        object.__setattr__(self, "write_modes", tuple(self.write_modes))
        object.__setattr__(self, "store_backends", tuple(self.store_backends))
        object.__setattr__(self, "process_counts", tuple(int(p) for p in self.process_counts))
        object.__setattr__(self, "rtols", _freeze_params(dict(self.rtols)))
        object.__setattr__(self, "params", _freeze_params(self.params))
        object.__setattr__(self, "cells", tuple(self.cells))

    def rtol_for(self, method: str) -> Optional[float]:
        """The configured tolerance for ``method`` (``None`` = paper default)."""
        for key, value in self.rtols:
            if key == method:
                return float(value)
        return None

    def expand(self) -> List[RunSpec]:
        """Expand the grid into the ordered list of independent cells."""
        if self.cells:
            return list(self.cells)
        return [self._cell(*coords) for coords in itertools.product(*self._axes())]

    def _axes(self) -> Tuple[Sequence, ...]:
        """The grid axes in expansion order (the last one varies fastest)."""
        return (
            self.methods,
            self.schemes,
            self.compressors,
            self.error_bounds,
            self.error_bound_policies,
            self.checkpoint_intervals,
            self.mttis,
            self.failure_models,
            self.recovery_levels,
            self.write_modes,
            self.store_backends,
            self.process_counts,
            range(self.repetitions),
        )

    def _cell(
        self,
        method: str,
        scheme: str,
        compressor: str,
        eb: float,
        error_bound_policy: str,
        interval: Optional[float],
        mtti: Optional[float],
        failure_model: str,
        recovery_levels: str,
        write_mode: str,
        store_backend: str,
        procs: int,
        rep: int,
    ) -> RunSpec:
        salts = [
            method,
            scheme,
            compressor,
            repr(float(eb)),
            repr(interval),
            repr(mtti),
            procs,
            rep,
        ]
        # Scenario and policy coordinates only salt the seed when
        # non-default, so every pre-existing campaign keeps its exact
        # historical cell seeds (and with them the statistical baselines the
        # figure tests pin).
        if failure_model != "poisson" or recovery_levels != "pfs":
            salts += [failure_model, recovery_levels]
        if error_bound_policy != "fixed":
            salts += ["policy", error_bound_policy]
        if write_mode != "blocking":
            salts += ["write_mode", write_mode]
        if store_backend != "pfs":
            salts += ["store_backend", store_backend]
        cell_seed = derive_seed(self.seed, *salts)
        return RunSpec(
            kind=self.kind,
            method=method,
            scheme=scheme,
            compressor=compressor,
            error_bound=float(eb),
            adaptive=(scheme == "lossy" and method == "gmres"),
            error_bound_policy=error_bound_policy,
            num_processes=int(procs),
            mtti_seconds=mtti,
            failure_model=failure_model,
            recovery_levels=recovery_levels,
            write_mode=write_mode,
            store_backend=store_backend,
            checkpoint_interval_seconds=interval,
            repetition=rep,
            seed=cell_seed,
            problem_seed=self.seed,
            grid_n=self.grid_n,
            kkt_n=self.kkt_n,
            rtol=self.rtol_for(method),
            gmres_restart=self.gmres_restart,
            max_iter=self.max_iter,
            params=self.params,
        )

    def __len__(self) -> int:
        if self.cells:
            return len(self.cells)
        return math.prod(len(axis) for axis in self._axes())

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation."""
        return {
            "name": self.name,
            "kind": self.kind,
            "methods": list(self.methods),
            "schemes": list(self.schemes),
            "compressors": list(self.compressors),
            "error_bounds": list(self.error_bounds),
            "error_bound_policies": list(self.error_bound_policies),
            "checkpoint_intervals": list(self.checkpoint_intervals),
            "mttis": list(self.mttis),
            "failure_models": list(self.failure_models),
            "recovery_levels": list(self.recovery_levels),
            "write_modes": list(self.write_modes),
            "store_backends": list(self.store_backends),
            "process_counts": list(self.process_counts),
            "repetitions": int(self.repetitions),
            "seed": int(self.seed),
            "grid_n": int(self.grid_n),
            "kkt_n": int(self.kkt_n),
            "gmres_restart": int(self.gmres_restart),
            "max_iter": int(self.max_iter),
            "rtols": [[k, v] for k, v in self.rtols],
            "params": [[k, list(v) if isinstance(v, tuple) else v] for k, v in self.params],
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output (or parsed JSON)."""
        data = dict(data)
        data["cells"] = tuple(
            RunSpec.from_dict(cell) for cell in data.get("cells", [])
        )
        data["rtols"] = _freeze_params(dict(data.get("rtols", [])))
        data["params"] = _freeze_params(data.get("params"))
        return cls(**data)

    def to_json(self, **kwargs) -> str:
        """Serialize to JSON (``sort_keys`` by default for determinism)."""
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "CampaignSpec":
        """Rebuild a campaign from a :meth:`to_json` string."""
        return cls.from_dict(json.loads(payload))
