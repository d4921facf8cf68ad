"""Machine specification and cluster-level time model.

:class:`ClusterModel` converts *what happened numerically* (bytes compressed,
bytes written, iterations executed) into *modeled wall-clock seconds at the
paper's scale*.  It is the substitution for the 2,048-core Bebop runs:

* checkpoint time = parallel compression time + storage write of the
  compressed bytes,
* recovery time = storage read of the compressed bytes + parallel
  decompression + regeneration of the static variables (matrix,
  preconditioner, right-hand side),
* iteration time comes from a per-method calibration table derived from the
  paper's own baselines (Jacobi 50 min / 3,941 iterations, GMRES 120 min /
  5,875 iterations, CG 35 min / ~2,376 iterations at 2,048 processes).

Compression/decompression throughput follows the paper's observation that SZ
compresses at ~80 GB/s and decompresses at ~180 GB/s on 1,024 cores with
near-linear scaling (Section 5.3).  Storage time comes from the model's
:class:`~repro.checkpoint.store.StoreProfile` — the paper's parallel file
system by default — times the FTI level's cost multiplier.

Every cost is a pure function of the model and the byte counts, so the engine
can price a scheduled event once, when it creates it, and trust the number
when the event fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.checkpoint.store import PFS_PROFILE, StoreProfile
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "MachineSpec",
    "ClusterModel",
    "BEBOP_LIKE",
    "PAPER_ITERATION_SECONDS",
    "PAPER_BASELINE_SECONDS",
    "PAPER_BASELINE_ITERATIONS",
]

_GIB = 1024.0**3

#: Failure-free ("productive") runtime of each method at 2,048 processes as
#: reported in Section 5.4 of the paper (Jacobi 50 min, GMRES 120 min,
#: CG 35 min).
PAPER_BASELINE_SECONDS: Dict[str, float] = {
    "jacobi": 3000.0,
    "gmres": 7200.0,
    "cg": 2100.0,
    "gauss_seidel": 3000.0,
    "sor": 3000.0,
    "ssor": 3000.0,
    "bicgstab": 2100.0,
}

#: Failure-free iteration counts at 2,048 processes quoted in the paper
#: (Jacobi 3,941; GMRES 5,875; CG ~2,376 from the 594 = 25% statement).
PAPER_BASELINE_ITERATIONS: Dict[str, int] = {
    "jacobi": 3941,
    "gmres": 5875,
    "cg": 2376,
    "gauss_seidel": 3941,
    "sor": 3941,
    "ssor": 3941,
    "bicgstab": 2376,
}

#: Seconds per iteration at the paper's 2,048-process scale, derived from the
#: baseline runtimes and iteration counts quoted in Section 5.4.
PAPER_ITERATION_SECONDS: Dict[str, float] = {
    method: PAPER_BASELINE_SECONDS[method] / PAPER_BASELINE_ITERATIONS[method]
    for method in PAPER_BASELINE_SECONDS
}


@dataclass(frozen=True)
class MachineSpec:
    """Static description of the simulated machine."""

    name: str = "bebop-like"
    nodes: int = 64
    cores_per_node: int = 32
    memory_per_node_gib: float = 128.0
    #: Per-core lossy compression throughput (bytes/s); 80 GB/s over 1,024 cores.
    compress_bandwidth_per_core: float = 80.0 * _GIB / 1024.0
    #: Per-core lossy decompression throughput (bytes/s); 180 GB/s over 1,024 cores.
    decompress_bandwidth_per_core: float = 180.0 * _GIB / 1024.0
    #: Per-core rate at which static variables (matrix/preconditioner/rhs) are
    #: regenerated during recovery (bytes of static data per second per core).
    static_rebuild_bandwidth_per_core: float = 50.0 * 1024.0**2
    #: Per-core rate of staging a checkpoint into node-local memory / burst
    #: buffer before an asynchronous drain (a memcpy-class operation, orders
    #: of magnitude faster than the PFS).
    staging_bandwidth_per_core: float = 2.0 * _GIB
    #: Fractional compute slowdown while an asynchronous drain is in flight
    #: (the background flush steals memory/network bandwidth from the solver).
    async_compute_interference: float = 0.02
    #: Node-local staging buffers available to asynchronous checkpointing
    #: (double buffering by default).  When every slot holds an in-flight
    #: drain, the next capture is deferred until a drain settles — without
    #: this backpressure a drain slower than the checkpoint interval grows
    #: the dirty queue without bound and no checkpoint ever commits.
    async_staging_slots: int = 2

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("nodes and cores_per_node must be >= 1")
        check_positive(self.memory_per_node_gib, "memory_per_node_gib")
        check_positive(self.compress_bandwidth_per_core, "compress_bandwidth_per_core")
        check_positive(self.decompress_bandwidth_per_core, "decompress_bandwidth_per_core")
        check_positive(
            self.static_rebuild_bandwidth_per_core, "static_rebuild_bandwidth_per_core"
        )
        check_positive(self.staging_bandwidth_per_core, "staging_bandwidth_per_core")
        check_nonnegative(self.async_compute_interference, "async_compute_interference")
        if int(self.async_staging_slots) < 1:
            raise ValueError("async_staging_slots must be >= 1")

    @property
    def total_cores(self) -> int:
        """Total cores of the machine."""
        return self.nodes * self.cores_per_node


#: The default machine — 64 dual-socket nodes with 32 cores each, like the
#: Bebop partition the paper used.
BEBOP_LIKE = MachineSpec()


@dataclass
class ClusterModel:
    """Time model for a job running on ``num_processes`` processes.

    Parameters
    ----------
    num_processes:
        MPI processes of the modeled job (the paper sweeps 256 - 2,048).
    spec:
        Machine description; defaults to :data:`BEBOP_LIKE`.
    iteration_seconds:
        Per-method seconds per iteration; defaults to the paper-derived table
        :data:`PAPER_ITERATION_SECONDS`.
    profile:
        Latency/bandwidth envelope of the store checkpoints are written to
        and recovered from; defaults to the paper's parallel file system.
    """

    num_processes: int = 2048
    spec: MachineSpec = field(default_factory=lambda: BEBOP_LIKE)
    iteration_seconds: Dict[str, float] = field(
        default_factory=lambda: dict(PAPER_ITERATION_SECONDS)
    )
    profile: StoreProfile = PFS_PROFILE

    def __post_init__(self) -> None:
        self.num_processes = int(self.num_processes)
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")

    # -- scaling helpers -----------------------------------------------------
    def with_processes(self, num_processes: int) -> "ClusterModel":
        """A copy of this model for a different process count."""
        return replace(self, num_processes=int(num_processes))

    # -- compute time ---------------------------------------------------------
    def iteration_time(self, method: str, *, override: Optional[float] = None) -> float:
        """Seconds per solver iteration of ``method`` at this scale."""
        if override is not None:
            return check_positive(override, "iteration time override")
        try:
            return self.iteration_seconds[method]
        except KeyError:
            raise KeyError(
                f"no iteration-time calibration for method {method!r}; "
                f"known: {sorted(self.iteration_seconds)}"
            ) from None

    def calibrated_iteration_time(self, method: str, local_iterations: int) -> float:
        """Per-iteration virtual time for a *reduced-size* local run.

        The reproduction solves a much smaller system than the paper (so its
        failure-free iteration count ``local_iterations`` is much smaller than
        the paper's).  To keep the failure process, the checkpoint cadence and
        the rollback costs in the same *proportion* to productive work as in
        the paper, the virtual per-iteration time is stretched so that the
        failure-free virtual runtime equals the paper's baseline runtime for
        this method.
        """
        local_iterations = int(local_iterations)
        if local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        try:
            baseline_seconds = PAPER_BASELINE_SECONDS[method]
        except KeyError:
            raise KeyError(
                f"no baseline-runtime calibration for method {method!r}; "
                f"known: {sorted(PAPER_BASELINE_SECONDS)}"
            ) from None
        return baseline_seconds / local_iterations

    # -- compression time -------------------------------------------------------
    def compression_seconds(self, uncompressed_bytes: float) -> float:
        """Modeled parallel lossy-compression time for ``uncompressed_bytes``."""
        uncompressed_bytes = check_nonnegative(uncompressed_bytes, "uncompressed_bytes")
        return uncompressed_bytes / (
            self.spec.compress_bandwidth_per_core * self.num_processes
        )

    def decompression_seconds(self, uncompressed_bytes: float) -> float:
        """Modeled parallel decompression time for ``uncompressed_bytes``."""
        uncompressed_bytes = check_nonnegative(uncompressed_bytes, "uncompressed_bytes")
        return uncompressed_bytes / (
            self.spec.decompress_bandwidth_per_core * self.num_processes
        )

    # -- checkpoint / recovery time --------------------------------------------
    def checkpoint_seconds(
        self,
        uncompressed_bytes: float,
        compressed_bytes: float,
        *,
        compressed: bool = True,
        write_cost_multiplier: float = 1.0,
    ) -> float:
        """Modeled time of one *blocking* checkpoint write.

        ``uncompressed_bytes`` is the dynamic-variable footprint before
        compression; ``compressed_bytes`` is what actually goes to storage.
        ``compressed=False`` (traditional checkpointing) skips the compression
        stage.  ``write_cost_multiplier`` scales the storage-write portion
        only (FTI-style multilevel checkpointing prices an L1 local write at a
        few percent of a full write; compression time is level-independent).
        """
        write = self.profile.write_seconds(
            compressed_bytes, self.num_processes
        ) * check_positive(write_cost_multiplier, "write_cost_multiplier")
        if not compressed:
            return write
        return self.compression_seconds(uncompressed_bytes) + write

    # -- asynchronous (overlapped) checkpointing --------------------------------
    @property
    def async_interference(self) -> float:
        """Fractional compute slowdown while an async drain is in flight."""
        return self.spec.async_compute_interference

    def capture_seconds(
        self,
        uncompressed_bytes: float,
        compressed_bytes: float,
        *,
        compressed: bool = True,
    ) -> float:
        """Inline (compute-channel) cost of staging one *asynchronous* checkpoint.

        The solver still pays for compression and for copying the compressed
        payload into node-local staging memory, but not for the storage write
        — that is drained in the background (:meth:`drain_seconds`) while
        compute continues.
        """
        compressed_bytes = check_nonnegative(compressed_bytes, "compressed_bytes")
        staging = compressed_bytes / (
            self.spec.staging_bandwidth_per_core * self.num_processes
        )
        if not compressed:
            return staging
        return self.compression_seconds(uncompressed_bytes) + staging

    def drain_seconds(
        self, compressed_bytes: float, *, write_cost_multiplier: float = 1.0
    ) -> float:
        """I/O-channel time to drain one staged checkpoint to storage.

        Prices the background flush of ``compressed_bytes`` at the store's
        contended async bandwidth
        (:attr:`~repro.checkpoint.store.StoreProfile.async_bandwidth_fraction`);
        ``write_cost_multiplier`` scales it for cheap multilevel targets,
        exactly as in :meth:`checkpoint_seconds`.
        """
        return self.profile.drain_seconds(
            compressed_bytes, self.num_processes
        ) * check_positive(write_cost_multiplier, "write_cost_multiplier")

    def recovery_seconds(
        self,
        uncompressed_bytes: float,
        compressed_bytes: float,
        *,
        static_bytes: float = 0.0,
        compressed: bool = True,
        read_cost_multiplier: float = 1.0,
    ) -> float:
        """Modeled time of one recovery (read + decompress + rebuild statics).

        ``read_cost_multiplier`` scales the storage-read portion only, so a
        multilevel recovery from a local/partner/RS-encoded checkpoint costs
        less than the full read the paper always prices.
        """
        read = self.profile.read_seconds(
            compressed_bytes, self.num_processes
        ) * check_positive(read_cost_multiplier, "read_cost_multiplier")
        rebuild = 0.0
        if static_bytes:
            rate = self.spec.static_rebuild_bandwidth_per_core * self.num_processes
            rebuild = check_nonnegative(static_bytes, "static_bytes") / rate
        if not compressed:
            return read + rebuild
        return read + self.decompression_seconds(uncompressed_bytes) + rebuild
