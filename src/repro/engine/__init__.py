"""Discrete-event fault-tolerance engine.

The engine executes one iterative solve under one checkpointing scheme with
injected failures on a virtual cluster timeline (the paper's Algorithms 1-2
and Section 5.4 methodology), structured as explicit timeline events against
a typed state:

* :mod:`repro.engine.core` — the event loop
  (:class:`~repro.engine.core.FaultToleranceEngine`);
* :mod:`repro.engine.events` — the typed event vocabulary and the opt-in
  :class:`~repro.engine.events.EventLog`;
* :mod:`repro.engine.scenario` — pluggable failure models × recovery levels
  (:class:`~repro.engine.scenario.Scenario`);
* :mod:`repro.engine.report` — :class:`~repro.engine.report.FTRunReport` and
  the failure-free baseline;
* :mod:`repro.engine.replay` — the deterministic trajectory-replay cache
  (phases keyed by a digest of their exact numeric start state replay their
  recorded residual trajectory instead of re-executing matvecs).
"""

from repro.engine.core import (
    CheckpointRecord,
    EngineState,
    FaultToleranceEngine,
    PendingDrain,
)
from repro.engine.events import (
    CheckpointDiscardedEvent,
    CheckpointTakenEvent,
    ComputeEvent,
    DrainCompletedEvent,
    DrainStartedEvent,
    EngineEvent,
    EventLog,
    FailureHitEvent,
    GiveUpEvent,
    RecoveryEvent,
    RollbackEvent,
)
from repro.engine.replay import (
    REPLAY_ENV,
    ReplaySession,
    SnapshotMemo,
    TrajectoryCache,
    get_global_cache,
    get_global_snapshot_memo,
    replay_enabled,
)
from repro.engine.report import BaselineRun, FTRunReport, run_failure_free
from repro.engine.scenario import (
    DEFAULT_SCENARIO,
    FAILURE_MODELS,
    RECOVERY_LEVELS,
    WRITE_MODES,
    Scenario,
)

__all__ = [
    "FaultToleranceEngine",
    "EngineState",
    "CheckpointRecord",
    "PendingDrain",
    "EngineEvent",
    "ComputeEvent",
    "CheckpointTakenEvent",
    "CheckpointDiscardedEvent",
    "DrainStartedEvent",
    "DrainCompletedEvent",
    "FailureHitEvent",
    "RecoveryEvent",
    "RollbackEvent",
    "GiveUpEvent",
    "EventLog",
    "BaselineRun",
    "FTRunReport",
    "run_failure_free",
    "Scenario",
    "DEFAULT_SCENARIO",
    "FAILURE_MODELS",
    "RECOVERY_LEVELS",
    "WRITE_MODES",
    "REPLAY_ENV",
    "ReplaySession",
    "SnapshotMemo",
    "TrajectoryCache",
    "replay_enabled",
    "get_global_cache",
    "get_global_snapshot_memo",
]
