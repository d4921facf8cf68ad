"""Failure/recovery scenarios — the engine's pluggable execution regime.

A :class:`Scenario` names the two orthogonal knobs of Section 5.4's
failure-injection methodology that the original runner hard-wired:

* **failure model** — how failure inter-arrival times are drawn
  (``poisson``, the paper's process; ``weibull`` infant-mortality
  clustering; ``bursty`` correlated arrivals; see
  :mod:`repro.cluster.failures`);
* **recovery levels** — where checkpoints live and therefore what a
  recovery costs: ``pfs`` always prices a parallel-file-system round trip
  (the paper's L4-only setup), ``fti`` walks the FTI level cycle of
  :class:`~repro.checkpoint.multilevel.MultilevelPolicy`, so most
  checkpoints are cheap local/partner copies that may not survive a failure
  (falling back to an older, safer checkpoint costs extra rollback).  The
  engine keeps the levels on its own checkpoint ledger and draws survival
  with :func:`~repro.checkpoint.multilevel.surviving_id`.

Every scenario prices a checkpoint from the byte size of the serialized
:class:`~repro.checkpoint.pipeline.CheckpointPipeline` payload it actually
produced — each full-length vector scaled to paper size by its own measured
compression ratio.  The default Poisson/PFS blocking regime's reports are
byte-pinned by the paper-regime golden fixture; the campaign grid exposes
every knob below as an axis.

A third knob, **write mode**, selects the timeline a checkpoint write runs
on: ``blocking`` (the paper's stop-the-world write — the solver stalls for
compression *and* the PFS write) or ``async`` (two-channel timeline — the
solver only stalls for the inline capture while the PFS write *drains* on a
separate I/O channel overlapping subsequent compute; the checkpoint is not
recoverable until its drain completes, a failure mid-drain falls back to
the previous completed checkpoint; payloads are the same full payloads a
blocking write ships).

A fourth knob, **store backend**, selects which
:class:`~repro.checkpoint.store.StoreProfile` prices the writes, reads, and
drains: ``pfs`` (the default — the paper's implicit parallel file system:
the cluster model's own profile), ``memory`` (node-RAM staging), ``disk``
(node-local burst buffer), ``object`` (a simulated remote object store), or
``chunked`` (content-addressed dedup over the object store — unique bytes
price the write, duplicate chunks never hit the wire).  Like the paper's
Eqs. (5)–(8), every backend prices a checkpoint from its payload size and
the profile's bandwidth; no payload is written anywhere.  ``chunked`` is
the one exception: the engine pools its payloads in a
:class:`~repro.checkpoint.chunked.ChunkedStore`, whose dedup preview
decides how many bytes a write ships.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.axes import (  # the axis vocabularies, re-exported
    CAMPAIGN_FAILURE_MODELS,
    FAILURE_MODELS,
    RECOVERY_LEVELS,
    STORE_BACKENDS,
    WRITE_MODES,
)
from repro.checkpoint.store import OBJECT_PROFILE, STORE_PROFILES
from repro.cluster.failures import FailureInjector, make_failure_model
from repro.cluster.machine import ClusterModel
from repro.utils.rng import SeedLike

__all__ = [
    "Scenario",
    "FAILURE_MODELS",
    "CAMPAIGN_FAILURE_MODELS",
    "RECOVERY_LEVELS",
    "WRITE_MODES",
    "STORE_BACKENDS",
    "DEFAULT_SCENARIO",
]

#: The profile each non-``pfs`` backend is priced by (``chunked`` dedups over
#: the simulated object store).
_BACKEND_PROFILES = {**STORE_PROFILES, "chunked": OBJECT_PROFILE}

_Params = Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class Scenario:
    """One (failure model × recovery levels) execution regime.

    ``failure_params`` are passed through to the failure-model constructor
    (e.g. ``(("shape", 0.5),)`` for a harsher Weibull); kept as a tuple of
    pairs so scenarios stay hashable and cache-key friendly.
    """

    failure_model: str = "poisson"
    recovery_levels: str = "pfs"
    failure_params: _Params = ()
    write_mode: str = "blocking"
    store_backend: str = "pfs"

    def __post_init__(self) -> None:
        for name, label, known in (
            ("failure_model", "failure model", FAILURE_MODELS),
            ("recovery_levels", "recovery levels", RECOVERY_LEVELS),
            ("write_mode", "write mode", WRITE_MODES),
            ("store_backend", "store backend", STORE_BACKENDS),
        ):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"unknown {label} {value!r}; known: {known}")
        object.__setattr__(
            self, "failure_params", tuple((str(k), v) for k, v in self.failure_params)
        )

    @property
    def is_paper_regime(self) -> bool:
        """Poisson arrivals + PFS-only recovery + blocking writes to the PFS.

        The default regime: its reports carry no scenario info keys, keeping
        them byte-identical to the paper-regime golden pins.
        """
        return (
            self.failure_model == "poisson"
            and self.recovery_levels == "pfs"
            and not self.failure_params
            and self.write_mode == "blocking"
            and self.store_backend == "pfs"
        )

    @property
    def asynchronous(self) -> bool:
        """True when checkpoint writes drain on the overlapped I/O channel."""
        return self.write_mode == "async"

    @property
    def multilevel(self) -> bool:
        """True when checkpoints walk the FTI level cycle."""
        return self.recovery_levels == "fti"

    def priced_on(self, cluster: ClusterModel) -> ClusterModel:
        """``cluster`` pricing storage through this scenario's backend.

        ``pfs`` is the cluster's own file system, so its profile stands;
        every other backend substitutes its store's profile.
        """
        if self.store_backend == "pfs":
            return cluster
        return replace(cluster, profile=_BACKEND_PROFILES[self.store_backend])

    # -- factory -------------------------------------------------------------
    def build_injector(
        self, mtti_seconds: Optional[float], seed: SeedLike
    ) -> FailureInjector:
        """The failure injector for one run (disabled when ``mtti`` is None)."""
        if mtti_seconds is None or mtti_seconds == float("inf"):
            return FailureInjector(None, seed=seed)
        model = make_failure_model(
            self.failure_model, mtti_seconds, **dict(self.failure_params)
        )
        return FailureInjector(mtti_seconds, seed=seed, model=model)


#: The default regime: homogeneous Poisson failures, PFS-only recovery,
#: blocking writes to the PFS.
DEFAULT_SCENARIO = Scenario()
