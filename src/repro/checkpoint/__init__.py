"""Checkpoint/restart toolkit (the paper's FTI substitute).

The workflow mirrors the paper's description of its library integration
(Section 4.2): *declare* the variables to protect (``Protect`` — the
solver's :class:`~repro.solvers.base.CheckpointSpec` names the dynamic ones;
the static ones — matrix, preconditioner, right-hand side — are rebuilt on
recovery and priced by the cluster model, and the residual is recomputed,
never stored), *snapshot* them periodically (``Snapshot``), and *restore*
them after a failure.  :class:`~repro.checkpoint.pipeline.CheckpointPipeline` compresses
the dynamic variables through any
:class:`~repro.compression.base.Compressor` and persists the resulting
payload through a pluggable :class:`~repro.checkpoint.store.CheckpointStore`
(in-memory, on-disk, or a simulated object store);
:class:`~repro.checkpoint.multilevel.MultilevelPolicy` assigns FTI levels
and :func:`~repro.checkpoint.multilevel.surviving_id` draws their survival.
"""

from repro.checkpoint.serialization import (
    serialize_checkpoint,
    deserialize_checkpoint,
    CheckpointPayload,
)
from repro.checkpoint.store import (
    STORE_PROFILES,
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
    StoreProfile,
    WriteReceipt,
)
from repro.checkpoint.chunked import ChunkedStore, DEFAULT_CHUNK_SIZE, chunk_digest
from repro.checkpoint.multilevel import (
    CheckpointLevel,
    MultilevelPolicy,
    surviving_id,
)
from repro.checkpoint.pipeline import (
    PIPELINE_VERSION,
    CheckpointPipeline,
    PipelineSnapshot,
    RestoredCheckpoint,
    VariableMeasurement,
)
from repro.checkpoint.delta import (
    DELTA_COMPRESSOR,
    delta_decode,
    delta_encode,
    is_delta_blob,
)

__all__ = [
    "serialize_checkpoint",
    "deserialize_checkpoint",
    "CheckpointPayload",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "SimulatedObjectStore",
    "ChunkedStore",
    "StoreProfile",
    "WriteReceipt",
    "STORE_PROFILES",
    "DEFAULT_CHUNK_SIZE",
    "chunk_digest",
    "CheckpointLevel",
    "MultilevelPolicy",
    "surviving_id",
    "CheckpointPipeline",
    "PipelineSnapshot",
    "RestoredCheckpoint",
    "VariableMeasurement",
    "PIPELINE_VERSION",
    "DELTA_COMPRESSOR",
    "delta_encode",
    "delta_decode",
    "is_delta_blob",
]
