"""The unified checkpoint pipeline — one measured write/restore path.

:class:`CheckpointPipeline` is the only checkpoint front-end — the paper's
``Protect()``/``Snapshot()`` workflow for standalone use and the
fault-tolerance engine's write/restore path alike:

* the protected dynamic variables are read off the solver's
  :class:`~repro.solvers.base.CheckpointSpec` declaration — the iteration
  counter, the iterate ``x``, the declared exact-resume vectors (CG's ``p``,
  BiCGSTAB's ``r``/``r_hat``/``p``/``v``) and the declared scalars;
* each variable is compressed under the scheme's rules — ``x`` through the
  scheme compressor with the resolved
  :class:`~repro.compression.errorbounds.ErrorBoundPolicy` bound, Krylov
  recurrence state always exactly (identity/DEFLATE, never lossy — a lossy
  recurrence vector would silently break the "exact resume" contract),
  scalars and counters losslessly in the payload index;
* the variables are packed into **one versioned serialized payload**
  (:mod:`repro.checkpoint.serialization`) whose *measured* byte size — not a
  modeled estimate — is what the engine prices through
  :meth:`~repro.cluster.machine.ClusterModel.checkpoint_seconds`, and what
  a standalone user commits into a :class:`~repro.checkpoint.store.
  CheckpointStore`;
* :meth:`CheckpointPipeline.restore` is the single inverse: it decompresses
  ``x`` (the rollback distortion of a lossy restore happens here), rebuilds
  the :class:`~repro.solvers.base.ResumeState` and hands both back, whether
  the payload came from the engine's in-memory record or a store read.

Paper-scale accounting
----------------------
The reproduction runs reduced problems, so measured *local* payload bytes
are converted to paper scale per variable: every full-length vector costs
``scale.vector_bytes / ratio_v`` with its own measured compression ratio
(this is where a BiCGSTAB-exact checkpoint's five differently-compressible
vectors stop being priced as five copies of ``x``), while scalars and the
serialization index are absolute bytes that do not grow with the problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro.checkpoint.serialization import (
    CheckpointPayload,
    deserialize_checkpoint,
    serialize_checkpoint,
)
from repro.checkpoint.store import CheckpointStore, WriteReceipt
from repro.compression.base import CompressedBlob, Compressor, make_compressor
from repro.solvers.base import CheckpointSpec, IterativeSolver, ResumeState

if TYPE_CHECKING:
    from repro.core.scale import ExperimentScale
    from repro.core.schemes import CheckpointingScheme

__all__ = [
    "PIPELINE_VERSION",
    "SCALAR_BYTES",
    "VariableMeasurement",
    "PipelineSnapshot",
    "RestoredCheckpoint",
    "CheckpointPipeline",
    "scaled_payload_bytes",
]

#: Stamped into every pipeline payload's metadata; bump when the payload
#: layout changes incompatibly.
PIPELINE_VERSION = 1

#: Logical size of one exactly-stored scalar / 64-bit counter entry.
SCALAR_BYTES = 8


def scaled_payload_bytes(
    scale: "ExperimentScale",
    variable_ratios: Mapping[str, float],
    *,
    scalar_count: int = 0,
    overhead_bytes: float = 0.0,
) -> tuple:
    """``(uncompressed, compressed)`` bytes of one payload at paper scale.

    The single pricing rule shared by the engine
    (:meth:`PipelineSnapshot.scaled_bytes`) and the experiment
    characterizations (:func:`repro.experiments.characterize.
    measured_checkpoint_bytes`): every full-length vector is scaled by its
    own measured compression ratio, while scalars and the serialization
    index are absolute bytes that do not grow with the problem size.
    """
    scalar_bytes = SCALAR_BYTES * int(scalar_count)
    uncompressed = scale.vector_bytes * len(variable_ratios) + scalar_bytes
    compressed = (
        sum(scale.vector_bytes / ratio for ratio in variable_ratios.values())
        + float(overhead_bytes)
    )
    return float(uncompressed), float(compressed)


@dataclass(frozen=True)
class VariableMeasurement:
    """Measured footprint of one variable inside one pipeline payload."""

    name: str
    #: ``"vector"`` (full-length array, scales with the problem), ``"scalar"``
    #: or ``"int"`` (absolute-size entries stored exactly in the index).
    kind: str
    uncompressed_bytes: int
    stored_bytes: int
    #: Name of the compressor the variable went through (``None`` for exact
    #: index entries).
    compressor: Optional[str] = None
    #: Resolved error bound description for lossily-compressed variables.
    error_bound: Optional[str] = None

    @property
    def compression_ratio(self) -> float:
        """Original bytes over stored bytes for this variable."""
        if self.stored_bytes == 0:
            return float("inf")
        return self.uncompressed_bytes / self.stored_bytes


@dataclass
class PipelineSnapshot:
    """One serialized checkpoint plus its measured per-variable byte map."""

    checkpoint_id: int
    iteration: int
    payload: bytes
    variables: List[VariableMeasurement] = field(default_factory=list)

    @property
    def serialized_bytes(self) -> int:
        """Total measured payload size (index + all stored variables)."""
        return len(self.payload)

    @property
    def uncompressed_bytes(self) -> int:
        """Sum of the variables' original byte sizes."""
        return sum(v.uncompressed_bytes for v in self.variables)

    @property
    def compression_ratio(self) -> float:
        """Overall payload ratio (original bytes over serialized bytes)."""
        if self.serialized_bytes == 0:
            return float("inf")
        return self.uncompressed_bytes / self.serialized_bytes

    @property
    def vector_measurements(self) -> List[VariableMeasurement]:
        """The full-length vector variables (the ones that scale)."""
        return [v for v in self.variables if v.kind == "vector"]

    @property
    def overhead_bytes(self) -> int:
        """Serialization-index bytes (everything that is not variable body)."""
        body = sum(v.stored_bytes for v in self.variables if v.kind == "vector")
        return len(self.payload) - body

    def ratio_of(self, name: str) -> float:
        """Measured compression ratio of one named variable."""
        for measurement in self.variables:
            if measurement.name == name:
                return measurement.compression_ratio
        raise KeyError(f"no variable {name!r} in this snapshot")

    def variable_ratios(self) -> Dict[str, float]:
        """Per-vector measured compression ratios, keyed by variable name."""
        return {v.name: v.compression_ratio for v in self.vector_measurements}

    def scaled_bytes(self, scale: "ExperimentScale") -> tuple:
        """``(uncompressed, compressed)`` bytes of this payload at paper scale.

        Every full-length vector is scaled by its own measured ratio; scalars
        and the serialization index are absolute bytes (they do not grow with
        the problem size).
        """
        return scaled_payload_bytes(
            scale,
            self.variable_ratios(),
            scalar_count=sum(1 for v in self.variables if v.kind != "vector"),
            overhead_bytes=self.overhead_bytes,
        )


@dataclass
class RestoredCheckpoint:
    """Outcome of one :meth:`CheckpointPipeline.restore` call."""

    checkpoint_id: int
    iteration: int
    x: np.ndarray
    resume_state: Optional[ResumeState] = None
    tag: Dict[str, object] = field(default_factory=dict)


class CheckpointPipeline:
    """Single checkpoint write/restore path for the engine and standalone use.

    Parameters
    ----------
    scheme:
        The :class:`~repro.core.schemes.CheckpointingScheme` governing how
        each variable is compressed (and which error-bound policy resolves
        the lossy bound).
    solver:
        The solver whose :attr:`~repro.solvers.base.IterativeSolver.
        checkpoint_spec` declares the protected state.  Pass ``spec``
        directly when no solver instance is at hand.
    spec:
        Explicit :class:`~repro.solvers.base.CheckpointSpec`; defaults to the
        solver's declaration.
    store:
        Optional :class:`~repro.checkpoint.store.CheckpointStore` that
        :meth:`commit` persists payloads into and
        :meth:`restore` reads from.

    Every payload is self-contained: each variable ships its full compressed
    form, so a restore reads exactly one payload.
    """

    def __init__(
        self,
        scheme: "CheckpointingScheme",
        *,
        solver: Optional[IterativeSolver] = None,
        spec: Optional[CheckpointSpec] = None,
        store: Optional[CheckpointStore] = None,
    ) -> None:
        if spec is None:
            if solver is None:
                raise ValueError("provide a solver or an explicit CheckpointSpec")
            spec = solver.checkpoint_spec
        self.scheme = scheme
        self.solver = solver
        self.spec = spec
        self.store = store
        # The paper's Protect(): ``(name, compressible)`` of every dynamic
        # variable, in payload order.
        dynamic = [("iteration", False), ("x", True)]
        if self.stores_resume_state:
            dynamic += [(name, True) for name in spec.extra_vectors]
            dynamic += [(name, False) for name in spec.scalars]
        self._dynamic = tuple(dynamic)
        # Krylov recurrence state must survive a round trip bit-for-bit, so
        # it never goes through the lossy compressor: exact schemes reuse
        # their own (identity / DEFLATE) compressor, the lossy scheme falls
        # back to DEFLATE for anything that is not ``x``.
        self._exact_compressor: Compressor = (
            make_compressor("zlib") if scheme.lossy else scheme.compressor()
        )
        # A lossy compressor sees ``x`` on the grid the solver's operator
        # describes, so its predictor can follow every stencil axis; exact
        # payloads and every other variable keep the flat layout.
        self._grid = (
            solver.grid_shape if scheme.lossy and solver is not None else None
        )
        self._decompressors: Dict[str, Compressor] = {}
        self._next_id = 0

    @property
    def stores_resume_state(self) -> bool:
        """Whether payloads carry the solver's declared exact-resume state."""
        return (
            self.scheme.checkpoint_krylov_state
            and self.spec.exact_resume
            and bool(self.spec.extra_vectors or self.spec.scalars)
        )

    # -- snapshot (the paper's Snapshot()) ------------------------------------
    def snapshot(
        self,
        x: np.ndarray,
        *,
        iteration: int = 0,
        resume_state: Optional[ResumeState] = None,
        residual_norm: Optional[float] = None,
        b_norm: Optional[float] = None,
        checkpoint_id: Optional[int] = None,
        **tag,
    ) -> PipelineSnapshot:
        """Compress and serialize one checkpoint; nothing is persisted yet.

        ``resume_state`` supplies the declared exact-resume vectors/scalars
        (omit it — or pass a partial state, e.g. GMRES away from a restart
        boundary — and the payload stores just ``x``).  ``residual_norm`` and
        ``b_norm`` feed the scheme's error-bound policy.  Call
        :meth:`commit` to persist the returned snapshot.
        The bytes depend on this call's state, iteration, norms and tag only
        — not on earlier calls, nor on ``checkpoint_id``, which labels the
        result — so the engine's payload memo
        (:func:`~repro.engine.replay.get_global_snapshot_memo`) may serve
        them again.
        """
        if checkpoint_id is None:
            checkpoint_id = self._next_id
        self._next_id = max(self._next_id, int(checkpoint_id)) + 1

        x = np.ascontiguousarray(x)
        if self._grid is not None:
            x = x.reshape(self._grid)
        values: Dict[str, object] = {"iteration": int(iteration), "x": x}
        if resume_state is not None:
            for name in self.spec.extra_vectors:
                values[name] = resume_state.vectors.get(name)
            for name in self.spec.scalars:
                values[name] = resume_state.scalars.get(name)

        payload = CheckpointPayload(
            meta={
                "kind": "dynamic",
                "pipeline_version": PIPELINE_VERSION,
                "scheme": self.scheme.name,
                "iteration": int(iteration),
                "tag": tag,
            }
        )
        measurements: List[VariableMeasurement] = []
        for name, compressible in self._dynamic:
            value = values.get(name)
            if value is None:
                continue  # declared but unavailable this round (partial resume)
            if (
                compressible
                and isinstance(value, np.ndarray)
                and np.issubdtype(value.dtype, np.floating)
                and value.size > 1
            ):
                compressor = self._compressor_for(
                    name, residual_norm=residual_norm, b_norm=b_norm
                )
                blob, _ = compressor.compress_with_record(value)
                payload.entries[name] = blob
                measurements.append(
                    VariableMeasurement(
                        name=name,
                        kind="vector",
                        uncompressed_bytes=int(value.nbytes),
                        stored_bytes=blob.nbytes,
                        compressor=blob.compressor,
                        error_bound=str(blob.meta.get("error_bound"))
                        if "error_bound" in blob.meta
                        else None,
                    )
                )
            else:
                entry = _exact_entry(value)
                payload.entries[name] = entry
                measurements.append(
                    VariableMeasurement(
                        name=name,
                        kind="int" if isinstance(entry, int) else "scalar",
                        uncompressed_bytes=SCALAR_BYTES,
                        stored_bytes=SCALAR_BYTES,
                    )
                )
        return PipelineSnapshot(
            checkpoint_id=int(checkpoint_id),
            iteration=int(iteration),
            payload=serialize_checkpoint(payload),
            variables=measurements,
        )

    def commit(self, snapshot: PipelineSnapshot) -> Optional[WriteReceipt]:
        """Persist a snapshot into the pipeline's store (no-op without one).

        Kept separate from :meth:`snapshot` so a caller can price — and on a
        mid-write failure discard — a checkpoint without it ever becoming
        restorable.  A commit changes no later snapshot's bytes.
        """
        if self.store is None:
            return None
        return self.store.write(snapshot.checkpoint_id, snapshot.payload)

    # -- restore ---------------------------------------------------------------
    def restore(
        self,
        checkpoint_id: Optional[int] = None,
        *,
        payload: Optional[bytes] = None,
    ) -> RestoredCheckpoint:
        """Decompress one checkpoint back into a flat ``x`` + resume state.

        Reads ``payload`` when given (the engine's in-memory record), else
        the identified — or latest — checkpoint from the store.  This is the
        single restore path: the engine's lossy rollback distortion, a
        multilevel fallback and a standalone user's restore all land here.
        """
        if payload is None:
            if self.store is None:
                raise ValueError("no payload given and the pipeline has no store")
            if checkpoint_id is None:
                ids = self.store.ids()
                if not ids:
                    raise KeyError("no checkpoint available to restore")
                checkpoint_id = ids[-1]
            payload = self.store.read(checkpoint_id)
        parsed = deserialize_checkpoint(payload)
        entries: Dict[str, object] = {}
        for name, entry in parsed.entries.items():
            if isinstance(entry, CompressedBlob):
                entries[name] = self._decompressor(entry.compressor).decompress(entry)
            else:
                entries[name] = entry
        if "x" not in entries:
            raise ValueError("payload does not contain the iterate 'x'")
        iteration = int(parsed.meta.get("iteration", entries.get("iteration", 0)))
        resume: Optional[ResumeState] = None
        if self.stores_resume_state and all(
            name in entries for name in (*self.spec.extra_vectors, *self.spec.scalars)
        ):
            resume = ResumeState(
                iteration=iteration,
                vectors={
                    name: _writable_f64(entries[name])
                    for name in self.spec.extra_vectors
                },
                scalars={
                    name: float(entries[name]) for name in self.spec.scalars
                },
            )
        return RestoredCheckpoint(
            checkpoint_id=int(checkpoint_id) if checkpoint_id is not None else -1,
            iteration=iteration,
            x=_writable_f64(entries["x"]).reshape(-1),
            resume_state=resume,
            tag=dict(parsed.meta.get("tag", {})),
        )

    # -- internals -------------------------------------------------------------
    def _compressor_for(
        self,
        name: str,
        *,
        residual_norm: Optional[float],
        b_norm: Optional[float],
    ) -> Compressor:
        """Compressor for one vector variable under the scheme's rules."""
        if name != "x" and self.scheme.lossy:
            return self._exact_compressor
        return self.scheme.checkpoint_compressor(
            residual_norm=residual_norm, b_norm=b_norm, variable=name
        )

    def _decompressor(self, name: str) -> Compressor:
        try:
            return self._decompressors[name]
        except KeyError:
            self._decompressors[name] = make_compressor(name)
            return self._decompressors[name]


def _writable_f64(value) -> np.ndarray:
    """A float64 array the solver may mutate.

    Deserialized array entries are read-only views into the payload buffer;
    decompressed blobs already own writable memory and pass through as-is.
    """
    arr = np.asarray(value, dtype=np.float64)
    if not arr.flags.writeable:
        arr = arr.copy()
    return arr


def _exact_entry(value):
    """Coerce a value into an exactly-stored serialization entry."""
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value)
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise TypeError(
        f"cannot checkpoint value of type {type(value)!r}; arrays or scalars only"
    )
