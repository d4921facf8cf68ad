"""Compressor interface, compressed-payload container and registry.

Every checkpointing scheme in the reproduction ("traditional", "lossless",
"lossy") is just a :class:`Compressor` plugged into the checkpoint manager.
The interface mirrors how the paper's pipeline uses SZ inside FTI: arrays in,
opaque bytes out, plus enough metadata to reconstruct the array and to report
compression ratios.
"""

from __future__ import annotations

import abc
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "CompressedBlob",
    "CompressionRecord",
    "Compressor",
    "register_compressor",
    "make_compressor",
]


@dataclass
class CompressedBlob:
    """An opaque compressed payload plus the metadata needed to restore it.

    Attributes
    ----------
    payload:
        The compressed byte string.
    shape / dtype:
        Original array shape and dtype string (restored exactly).
    compressor:
        Name of the compressor that produced the payload.
    meta:
        Compressor-specific metadata (error bound used, codec parameters, ...).
    """

    payload: bytes
    shape: Tuple[int, ...]
    dtype: str
    compressor: str
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Size of the compressed payload in bytes (metadata excluded)."""
        return len(self.payload)

    @property
    def format_version(self) -> int:
        """Payload format version (0 = unversioned).

        Every writer stamps ``meta["format_version"]`` — the sharded frame's
        for the compressors, the block-codec frame's for delta blobs — and
        every reader rejects a blob whose version is not its writer's.
        """
        return int(self.meta.get("format_version", 0))

    def check_format_version(self, expected: int) -> None:
        """Reject, before parsing a byte, a blob its reader cannot decode."""
        if self.format_version != expected:
            raise ValueError(
                f"unsupported payload format version {self.format_version}"
            )

    @property
    def original_nbytes(self) -> int:
        """Size of the original array in bytes."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize

    @property
    def compression_ratio(self) -> float:
        """Original bytes divided by compressed bytes."""
        if self.nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.nbytes


@dataclass
class CompressionRecord:
    """Timing/size bookkeeping for one compress or decompress call."""

    operation: str
    original_bytes: int
    compressed_bytes: int
    seconds: float


class Compressor(abc.ABC):
    """Abstract base class for all checkpoint compressors.

    Subclasses implement :meth:`_compress_array` / :meth:`_decompress_array`;
    the public :meth:`compress` / :meth:`decompress` wrappers add input
    validation and per-call timing records (used by the experiment harness to
    report compression throughput).  Only the last :attr:`RECORD_HISTORY`
    records are kept: a compressor bound to a long-lived scheme sees one
    call per snapshot and restore.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: Whether decompression reproduces the input bit-for-bit.
    lossless: bool = False
    #: How many of the most recent calls :attr:`records` holds.
    RECORD_HISTORY = 64

    def __init__(self) -> None:
        self.records: Deque[CompressionRecord] = deque(maxlen=self.RECORD_HISTORY)
        #: Record of the most recent compress/decompress call on this
        #: instance.  Prefer :meth:`compress_with_record` when the instance
        #: may be shared (several managers, ``with_error_bound`` swaps):
        #: the returned record is attributed to *that* call unambiguously.
        self.last_record: Optional[CompressionRecord] = None

    # -- public API --------------------------------------------------------
    def compress(self, data: np.ndarray) -> CompressedBlob:
        """Compress ``data`` (any-dimensional float/int array) to a blob."""
        return self.compress_with_record(data)[0]

    def compress_with_record(
        self, data: np.ndarray
    ) -> Tuple[CompressedBlob, CompressionRecord]:
        """Compress ``data`` and return the blob with this call's record.

        Unlike reading ``records[-1]`` after :meth:`compress`, the returned
        record cannot be mis-attributed when the compressor instance is
        shared between callers.
        """
        arr = np.ascontiguousarray(data)
        if arr.size == 0:
            raise ValueError("cannot compress an empty array")
        start = time.perf_counter()
        blob = self._compress_array(arr)
        elapsed = time.perf_counter() - start
        record = CompressionRecord("compress", arr.nbytes, blob.nbytes, elapsed)
        self.records.append(record)
        self.last_record = record
        return blob, record

    def compress_with_reconstruction(
        self, data: np.ndarray
    ) -> Tuple[CompressedBlob, CompressionRecord, np.ndarray]:
        """Compress ``data`` and also return what decompressing it yields.

        ``compress_with_record`` followed by a decode of the blob, so the
        returned array is bitwise identical to ``decompress(blob)``.
        """
        blob, record = self.compress_with_record(data)
        return blob, record, self._decompress_array(blob)

    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Reconstruct the array stored in ``blob``."""
        if blob.compressor != self.name:
            raise ValueError(
                f"blob was produced by {blob.compressor!r}, not by {self.name!r}"
            )
        start = time.perf_counter()
        arr = self._decompress_array(blob)
        elapsed = time.perf_counter() - start
        record = CompressionRecord("decompress", arr.nbytes, blob.nbytes, elapsed)
        self.records.append(record)
        self.last_record = record
        return arr

    # -- bookkeeping --------------------------------------------------------
    def mean_seconds(self, operation: str) -> float:
        """Mean seconds per recorded call for ``operation`` ('compress'/'decompress')."""
        times = [r.seconds for r in self.records if r.operation == operation]
        return float(np.mean(times)) if times else 0.0

    def reset_records(self) -> None:
        """Clear accumulated timing records."""
        self.records.clear()
        self.last_record = None

    # -- subclass hooks ------------------------------------------------------
    @abc.abstractmethod
    def _compress_array(self, data: np.ndarray) -> CompressedBlob:
        """Compress a non-empty contiguous array."""

    @abc.abstractmethod
    def _decompress_array(self, blob: CompressedBlob) -> np.ndarray:
        """Reconstruct the array stored in ``blob``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, Callable[..., Compressor]] = {}


def register_compressor(name: str, factory: Callable[..., Compressor]) -> None:
    """Register ``factory`` under ``name`` for :func:`make_compressor`."""
    if not name:
        raise ValueError("compressor name must be non-empty")
    _REGISTRY[name] = factory


def make_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name.

    Recognised names (after the built-ins register themselves on import):
    ``"none"``/``"identity"`` (traditional checkpointing), ``"zlib"``/``"gzip"``
    (lossless), ``"sz"`` (prediction-based lossy), ``"zfp"`` (transform-based
    lossy).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown compressor {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


