"""Checkpoint persistence back ends behind one ``CheckpointStore`` protocol.

A :class:`CheckpointStore` persists opaque checkpoint payloads keyed by an
integer checkpoint id.  Concrete back ends:

* :class:`MemoryCheckpointStore` — keeps payloads in RAM.
* :class:`FileCheckpointStore` — one file per checkpoint under a directory,
  like FTI's one-file-per-process layout.  Writes are crash-safe: payloads
  land in a same-directory temp file, are fsynced, and are published with an
  atomic ``os.replace`` followed by a directory fsync.
* :class:`SimulatedObjectStore` — an in-memory stand-in for a remote object
  store that counts PUT/GET/DELETE operations the way an object-store bill
  would.

What a write, read or asynchronous drain *costs* is a separate matter: a
:class:`StoreProfile` (latency / bandwidth envelope) prices it, and the
built-in profiles (:data:`STORE_PROFILES`) describe the PFS, node memory,
node-local disk and an object store.  The fault-tolerance engine builds no
store: it prices a checkpoint through the profile of the scenario's backend
(``ClusterModel.profile``, set by ``Scenario.priced_on``) and keeps the
payload in its own record.  The stores are the library that standalone
:class:`~repro.checkpoint.pipeline.CheckpointPipeline` users and the
checkpoint-stream benchmark perform real I/O with.

:class:`~repro.checkpoint.chunked.ChunkedStore` wraps any of these with
content-addressed chunk dedup via the blob API (:meth:`put_blob` et al.),
which namespaces auxiliary objects (chunks, replicas) away from the integer
checkpoint-id keyspace.
"""

from __future__ import annotations

import abc
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.utils.validation import check_nonnegative

__all__ = [
    "StoreProfile",
    "WriteReceipt",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "SimulatedObjectStore",
    "MEMORY_PROFILE",
    "DISK_PROFILE",
    "PFS_PROFILE",
    "OBJECT_PROFILE",
    "STORE_PROFILES",
]

PathLike = Union[str, "os.PathLike[str]"]

_GIB = 1024**3


@dataclass(frozen=True)
class StoreProfile:
    """Latency / bandwidth envelope of a checkpoint store.

    The one storage-cost algebra: moving ``nbytes`` between
    ``num_processes`` ranks and the store costs ``latency +
    per_process_overhead * num_processes + nbytes / bandwidth`` — a fixed
    aggregate bandwidth shared by all ranks (total data grows linearly under
    weak scaling while the bandwidth stays constant, Section 5.3) plus a
    per-rank metadata/collective-I/O contention term, which is what keeps
    *compressed* checkpoint times growing with scale in Figures 4-6 even
    though the payload is tiny.  An asynchronous drain only sees
    ``async_bandwidth_fraction`` of the write bandwidth: a background flush
    contends with the running application's own traffic.
    """

    name: str
    write_bandwidth: float
    read_bandwidth: float
    latency: float = 0.5
    per_process_overhead: float = 0.008
    async_bandwidth_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency < 0 or self.per_process_overhead < 0:
            raise ValueError("latency and per-process overhead must be >= 0")
        if not (0.0 < self.async_bandwidth_fraction <= 1.0):
            raise ValueError("async_bandwidth_fraction must be in (0, 1]")

    # -- pricing -------------------------------------------------------------
    def _transfer_seconds(
        self, nbytes: float, num_processes: int, bandwidth: float
    ) -> float:
        """The one cost expression every storage operation is priced by."""
        nbytes = check_nonnegative(nbytes, "nbytes")
        if num_processes < 1:
            raise ValueError(f"num_processes must be >= 1, got {num_processes}")
        return (
            self.latency
            + self.per_process_overhead * num_processes
            + nbytes / bandwidth
        )

    def write_seconds(self, nbytes: float, num_processes: int = 1) -> float:
        """Modeled seconds to write ``nbytes`` from ``num_processes`` ranks."""
        return self._transfer_seconds(nbytes, num_processes, self.write_bandwidth)

    def read_seconds(self, nbytes: float, num_processes: int = 1) -> float:
        """Modeled seconds to read ``nbytes`` into ``num_processes`` ranks."""
        return self._transfer_seconds(nbytes, num_processes, self.read_bandwidth)

    def drain_seconds(self, nbytes: float, num_processes: int = 1) -> float:
        """Modeled seconds to drain ``nbytes`` on the background I/O channel."""
        return self._transfer_seconds(
            nbytes, num_processes, self.write_bandwidth * self.async_bandwidth_fraction
        )

#: The paper's parallel file system, calibrated on its anchor measurement:
#: one traditional checkpoint of a 78.8 GiB vector from 2,048 processes takes
#: about 120 s (bandwidth term ~103 s + contention ~16 s + latency).
PFS_PROFILE = StoreProfile(
    name="pfs",
    write_bandwidth=78.8 * _GIB / 103.0,
    read_bandwidth=78.8 * _GIB / 95.0,
    latency=0.5,
    per_process_overhead=0.008,
    async_bandwidth_fraction=0.7,
)

#: Node-RAM staging: enormous bandwidth, near-zero latency.
MEMORY_PROFILE = StoreProfile(
    name="memory",
    write_bandwidth=100.0 * PFS_PROFILE.write_bandwidth,
    read_bandwidth=100.0 * PFS_PROFILE.read_bandwidth,
    latency=0.001,
    per_process_overhead=0.0001,
    async_bandwidth_fraction=0.9,
)

#: Node-local disk (SSD burst buffer): faster than the PFS.
DISK_PROFILE = StoreProfile(
    name="disk",
    write_bandwidth=20.0 * PFS_PROFILE.write_bandwidth,
    read_bandwidth=20.0 * PFS_PROFILE.read_bandwidth,
    latency=0.01,
    per_process_overhead=0.001,
    async_bandwidth_fraction=0.8,
)

#: Remote object store: much higher per-request latency and lower streaming
#: bandwidth than the PFS.
OBJECT_PROFILE = StoreProfile(
    name="object",
    write_bandwidth=0.5 * PFS_PROFILE.write_bandwidth,
    read_bandwidth=0.8 * PFS_PROFILE.read_bandwidth,
    latency=4.0,
    per_process_overhead=0.012,
    async_bandwidth_fraction=0.9,
)

#: Built-in profiles by name.
STORE_PROFILES: Dict[str, StoreProfile] = {
    "pfs": PFS_PROFILE,
    "memory": MEMORY_PROFILE,
    "disk": DISK_PROFILE,
    "object": OBJECT_PROFILE,
}


@dataclass
class WriteReceipt:
    """Result of persisting one checkpoint.

    ``seconds`` is host wall-clock time (``time.perf_counter`` deltas) and is
    diagnostic only — it must never feed a deterministic artifact (reports,
    campaign caches, benchmark JSON); modeled time comes from
    :class:`StoreProfile` pricing instead.  The dedup fields are populated
    only by :class:`~repro.checkpoint.chunked.ChunkedStore`.
    """

    checkpoint_id: int
    nbytes: int
    seconds: float
    unique_bytes: Optional[int] = None
    dedup_ratio: Optional[float] = None
    chunks_total: Optional[int] = None
    chunks_new: Optional[int] = None


class CheckpointStore(abc.ABC):
    """Abstract key-value store for serialized checkpoints."""

    @abc.abstractmethod
    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        """Persist ``payload`` under ``checkpoint_id`` (overwriting)."""

    @abc.abstractmethod
    def read(self, checkpoint_id: int) -> bytes:
        """Return the payload stored under ``checkpoint_id``."""

    @abc.abstractmethod
    def ids(self) -> List[int]:
        """All stored checkpoint ids in ascending order."""

    @abc.abstractmethod
    def delete(self, checkpoint_id: int) -> None:
        """Remove a checkpoint (no-op if absent)."""

    # -- auxiliary blob namespace -----------------------------------------
    # Chunk pools and level replicas live beside the integer-keyed
    # checkpoints without colliding with them.  Backends that cannot hold
    # blobs simply leave these unimplemented.
    def put_blob(self, key: str, payload: bytes) -> None:
        """Persist an auxiliary named blob (chunks, replicas, manifests)."""
        raise NotImplementedError(f"{type(self).__name__} does not store blobs")

    def get_blob(self, key: str) -> bytes:
        """Return a blob by key; raises ``KeyError`` if absent."""
        raise NotImplementedError(f"{type(self).__name__} does not store blobs")

    def delete_blob(self, key: str) -> None:
        """Remove a blob (no-op if absent)."""
        raise NotImplementedError(f"{type(self).__name__} does not store blobs")

    def has_blob(self, key: str) -> bool:
        """True if a blob exists under ``key``."""
        raise NotImplementedError(f"{type(self).__name__} does not store blobs")

    def blob_keys(self) -> List[str]:
        """All stored blob keys in sorted order."""
        raise NotImplementedError(f"{type(self).__name__} does not store blobs")


class MemoryCheckpointStore(CheckpointStore):
    """In-memory checkpoint store (payloads held as byte strings)."""

    def __init__(self) -> None:
        self._data: Dict[int, bytes] = {}
        self._blobs: Dict[str, bytes] = {}

    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        start = time.perf_counter()
        self._data[int(checkpoint_id)] = bytes(payload)
        return WriteReceipt(int(checkpoint_id), len(payload), time.perf_counter() - start)

    def read(self, checkpoint_id: int) -> bytes:
        try:
            return self._data[int(checkpoint_id)]
        except KeyError:
            raise KeyError(f"no checkpoint with id {checkpoint_id}") from None

    def ids(self) -> List[int]:
        return sorted(self._data)

    def delete(self, checkpoint_id: int) -> None:
        self._data.pop(int(checkpoint_id), None)

    def put_blob(self, key: str, payload: bytes) -> None:
        self._blobs[str(key)] = bytes(payload)

    def get_blob(self, key: str) -> bytes:
        try:
            return self._blobs[str(key)]
        except KeyError:
            raise KeyError(f"no blob with key {key!r}") from None

    def delete_blob(self, key: str) -> None:
        self._blobs.pop(str(key), None)

    def has_blob(self, key: str) -> bool:
        return str(key) in self._blobs

    def blob_keys(self) -> List[str]:
        return sorted(self._blobs)


class FileCheckpointStore(CheckpointStore):
    """One-file-per-checkpoint store rooted at ``directory``.

    Writes are crash-safe: the payload is staged in a temp file *in the same
    directory* (so the final ``os.replace`` is an atomic same-filesystem
    rename), fsynced before publication, and the directory entry itself is
    fsynced afterwards so the rename survives a power loss.  A reader
    therefore sees either the previous complete checkpoint or the new one —
    never a torn write.
    """

    _BLOB_DIR = "blobs"

    def __init__(self, directory: PathLike) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, checkpoint_id: int) -> str:
        return os.path.join(self.directory, f"ckpt_{int(checkpoint_id):08d}.bin")

    @staticmethod
    def _fsync_dir(directory: str) -> None:
        # Persist the rename itself: fsync on the file only flushes its data
        # blocks, not the directory entry created by os.replace.
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform without dir fsync
            pass
        finally:
            os.close(fd)

    def _atomic_write(self, path: str, payload: bytes) -> None:
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir(os.path.dirname(path))

    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        start = time.perf_counter()
        self._atomic_write(self._path(checkpoint_id), payload)
        return WriteReceipt(int(checkpoint_id), len(payload), time.perf_counter() - start)

    def read(self, checkpoint_id: int) -> bytes:
        path = self._path(checkpoint_id)
        if not os.path.exists(path):
            raise KeyError(f"no checkpoint with id {checkpoint_id}")
        with open(path, "rb") as handle:
            return handle.read()

    def ids(self) -> List[int]:
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("ckpt_") and name.endswith(".bin"):
                try:
                    found.append(int(name[5:-4]))
                except ValueError:
                    continue
        return sorted(found)

    def delete(self, checkpoint_id: int) -> None:
        path = self._path(checkpoint_id)
        if os.path.exists(path):
            os.remove(path)

    # -- blobs: one file per key under blobs/, key escaped into a filename --
    def _blob_path(self, key: str) -> str:
        safe = str(key).replace("%", "%25").replace(os.sep, "%2F").replace("/", "%2F")
        return os.path.join(self.directory, self._BLOB_DIR, safe)

    def put_blob(self, key: str, payload: bytes) -> None:
        path = self._blob_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, payload)

    def get_blob(self, key: str) -> bytes:
        path = self._blob_path(key)
        if not os.path.exists(path):
            raise KeyError(f"no blob with key {key!r}")
        with open(path, "rb") as handle:
            return handle.read()

    def delete_blob(self, key: str) -> None:
        path = self._blob_path(key)
        if os.path.exists(path):
            os.remove(path)

    def has_blob(self, key: str) -> bool:
        return os.path.exists(self._blob_path(key))

    def blob_keys(self) -> List[str]:
        blob_dir = os.path.join(self.directory, self._BLOB_DIR)
        if not os.path.isdir(blob_dir):
            return []
        keys = []
        for name in os.listdir(blob_dir):
            keys.append(name.replace("%2F", "/").replace("%25", "%"))
        return sorted(keys)


class SimulatedObjectStore(MemoryCheckpointStore):
    """In-memory stand-in for a remote object store.

    Holds real bytes like :class:`MemoryCheckpointStore` and tallies
    PUT/GET/DELETE operation counts the way an object-store bill would.
    """

    def __init__(self) -> None:
        super().__init__()
        self.op_counts: Dict[str, int] = {"put": 0, "get": 0, "delete": 0}

    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        self.op_counts["put"] += 1
        return super().write(checkpoint_id, payload)

    def read(self, checkpoint_id: int) -> bytes:
        self.op_counts["get"] += 1
        return super().read(checkpoint_id)

    def delete(self, checkpoint_id: int) -> None:
        self.op_counts["delete"] += 1
        super().delete(checkpoint_id)

    def put_blob(self, key: str, payload: bytes) -> None:
        self.op_counts["put"] += 1
        super().put_blob(key, payload)

    def get_blob(self, key: str) -> bytes:
        self.op_counts["get"] += 1
        return super().get_blob(key)

    def delete_blob(self, key: str) -> None:
        self.op_counts["delete"] += 1
        super().delete_blob(key)
