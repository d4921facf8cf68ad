"""Content-addressed chunk dedup on top of any :class:`CheckpointStore`.

:class:`ChunkedStore` splits every payload into fixed-size chunks, keys each
chunk by its BLAKE2b digest, and stores chunks once in a refcounted pool on
the wrapped backend's blob namespace.  Each checkpoint is represented by a
small JSON *manifest* (chunk digests in order plus the total length) written
under the checkpoint's integer id, so the wrapped store's ``ids`` /
``delete`` semantics carry over unchanged.

Identical blocks — across FTI level replicas or repeated writes of
slowly-changing state — are therefore stored (and, in the engine's
pricing model, *shipped*) only once: bytes that never hit the wire cost
nothing.  The :class:`~repro.checkpoint.store.WriteReceipt` reports
``unique_bytes`` (chunk bytes newly added by this write) and ``dedup_ratio``
(logical bytes / unique bytes) so callers can price the write at the deduped
size; :meth:`ChunkedStore.preview_write` exposes the same split *before*
committing, which is what the engine uses to price a drain it may later
discard.

Besides integer-keyed checkpoints, the store offers *chunked blobs*
(:meth:`ChunkedStore.put_chunked_blob`): string-keyed objects that share the
same chunk pool.  The fault-tolerance engine uses them for PARTNER-level
replicas, so a replica of a payload whose chunks are already pooled adds zero unique
bytes.

The manifest layout is documented in ``docs/payload-format.md``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from repro.checkpoint.store import (
    CheckpointStore,
    StoreProfile,
    WriteReceipt,
)

__all__ = ["ChunkedStore", "DEFAULT_CHUNK_SIZE", "chunk_digest"]

#: Default chunk size (bytes).  Small enough that repeated regions of a
#: multi-megabyte payload dedup well, large enough that the manifest stays a
#: tiny fraction of the payload.
DEFAULT_CHUNK_SIZE = 4096

_MANIFEST_MAGIC = "repro-chunk-manifest"
_MANIFEST_VERSION = 1
_DIGEST_SIZE = 16  # bytes of BLAKE2b -> 32 hex chars per chunk key
_MANIFEST_BLOB_PREFIX = "manifest/"


def chunk_digest(chunk: bytes) -> str:
    """Content address of one chunk: BLAKE2b-128 hex digest."""
    return hashlib.blake2b(chunk, digest_size=_DIGEST_SIZE).hexdigest()


def _chunk_key(digest: str) -> str:
    return f"chunk/{digest}"


class ChunkedStore(CheckpointStore):
    """Content-addressed, refcounted chunking wrapper around any backend.

    Parameters
    ----------
    base:
        The wrapped backend.  It must support the blob API
        (``put_blob``/``get_blob``/...), which all built-in backends do.
    chunk_size:
        Fixed chunk size in bytes; the final chunk of a payload may be
        shorter.

    The refcount table is rebuilt from the manifests already present on the
    base store, so reopening a :class:`ChunkedStore` over an existing
    :class:`~repro.checkpoint.store.FileCheckpointStore` directory resumes
    with correct liveness accounting.
    """

    def __init__(
        self, base: CheckpointStore, *, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.base = base
        self.chunk_size = int(chunk_size)
        self._refcounts: Dict[str, int] = {}
        # Monotone cumulative counters over the store's lifetime; deletes do
        # not roll them back (they describe write traffic, not occupancy).
        self._logical_bytes = 0
        self._unique_bytes = 0
        for checkpoint_id in self.base.ids():
            self._count_refs(self._parse_manifest(self.base.read(checkpoint_id)))
        for key in self.base.blob_keys():
            if key.startswith(_MANIFEST_BLOB_PREFIX):
                self._count_refs(self._parse_manifest(self.base.get_blob(key)))

    # -- manifest helpers --------------------------------------------------
    def _split(self, payload: bytes) -> List[bytes]:
        return [
            payload[offset : offset + self.chunk_size]
            for offset in range(0, len(payload), self.chunk_size)
        ]

    @staticmethod
    def _parse_manifest(raw: bytes) -> Dict:
        manifest = json.loads(raw.decode("utf-8"))
        if manifest.get("magic") != _MANIFEST_MAGIC:
            raise ValueError("payload on the base store is not a chunk manifest")
        return manifest

    def _count_refs(self, manifest: Dict) -> None:
        for digest in manifest["chunks"]:
            self._refcounts[digest] = self._refcounts.get(digest, 0) + 1

    def _load_manifest(self, checkpoint_id: int) -> Dict:
        return self._parse_manifest(self.base.read(checkpoint_id))

    def _store_chunks(self, payload: bytes) -> Tuple[List[str], int, int]:
        """Pool the chunks of ``payload``; return (digests, new_bytes, new_chunks)."""
        digests: List[str] = []
        new_bytes = 0
        new_chunks = 0
        for chunk in self._split(payload):
            digest = chunk_digest(chunk)
            digests.append(digest)
            count = self._refcounts.get(digest, 0)
            if count == 0 and not self.base.has_blob(_chunk_key(digest)):
                self.base.put_blob(_chunk_key(digest), chunk)
                new_bytes += len(chunk)
                new_chunks += 1
            self._refcounts[digest] = count + 1
        self._logical_bytes += len(payload)
        self._unique_bytes += new_bytes
        return digests, new_bytes, new_chunks

    def _release_chunks(self, digests: List[str]) -> None:
        for digest in digests:
            remaining = self._refcounts.get(digest, 0) - 1
            if remaining <= 0:
                self._refcounts.pop(digest, None)
                self.base.delete_blob(_chunk_key(digest))
            else:
                self._refcounts[digest] = remaining

    def _manifest_bytes(self, length: int, digests: List[str]) -> bytes:
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "version": _MANIFEST_VERSION,
            "length": length,
            "chunk_size": self.chunk_size,
            "chunks": digests,
        }
        return json.dumps(manifest, sort_keys=True).encode("utf-8")

    def _assemble(self, manifest: Dict) -> bytes:
        body = b"".join(
            self.base.get_blob(_chunk_key(digest)) for digest in manifest["chunks"]
        )
        if len(body) != manifest["length"]:
            raise ValueError(
                f"reassembled {len(body)} bytes, manifest says {manifest['length']}"
            )
        return body

    def preview_write(self, payload: bytes) -> Tuple[int, int]:
        """``(nbytes, unique_new_bytes)`` a :meth:`write` of ``payload`` would see.

        ``unique_new_bytes`` counts the bytes of chunks not yet in the pool —
        the data that would actually travel to the backend.  Used by the
        engine to price a write before (or without) committing it.
        """
        seen_new = set()
        unique_new = 0
        for chunk in self._split(bytes(payload)):
            digest = chunk_digest(chunk)
            if self._refcounts.get(digest, 0) == 0 and digest not in seen_new:
                seen_new.add(digest)
                unique_new += len(chunk)
        return len(payload), unique_new

    # -- CheckpointStore interface -----------------------------------------
    def write(self, checkpoint_id: int, payload: bytes) -> WriteReceipt:
        payload = bytes(payload)
        checkpoint_id = int(checkpoint_id)
        # Overwrite semantics: drop the previous manifest's references first.
        if checkpoint_id in set(self.base.ids()):
            self.delete(checkpoint_id)
        digests, new_bytes, new_chunks = self._store_chunks(payload)
        receipt = self.base.write(
            checkpoint_id, self._manifest_bytes(len(payload), digests)
        )
        return WriteReceipt(
            checkpoint_id=checkpoint_id,
            nbytes=len(payload),
            seconds=receipt.seconds,
            unique_bytes=new_bytes,
            dedup_ratio=(len(payload) / new_bytes) if new_bytes else float("inf"),
            chunks_total=len(digests),
            chunks_new=new_chunks,
        )

    def read(self, checkpoint_id: int) -> bytes:
        return self._assemble(self._load_manifest(checkpoint_id))

    def ids(self) -> List[int]:
        return self.base.ids()

    def delete(self, checkpoint_id: int) -> None:
        checkpoint_id = int(checkpoint_id)
        if checkpoint_id not in set(self.base.ids()):
            return
        manifest = self._load_manifest(checkpoint_id)
        self.base.delete(checkpoint_id)
        self._release_chunks(manifest["chunks"])

    # -- chunked blobs (string-keyed, same chunk pool) ---------------------
    def put_chunked_blob(self, key: str, payload: bytes) -> WriteReceipt:
        """Store a string-keyed object through the dedup pool.

        Replicas and other auxiliary copies written this way share chunks
        with the integer-keyed checkpoints, so a replica of an
        already-pooled payload adds zero unique bytes.
        """
        payload = bytes(payload)
        manifest_key = _MANIFEST_BLOB_PREFIX + str(key)
        if self.base.has_blob(manifest_key):
            self.delete_chunked_blob(key)
        digests, new_bytes, new_chunks = self._store_chunks(payload)
        self.base.put_blob(manifest_key, self._manifest_bytes(len(payload), digests))
        return WriteReceipt(
            checkpoint_id=-1,
            nbytes=len(payload),
            seconds=0.0,
            unique_bytes=new_bytes,
            dedup_ratio=(len(payload) / new_bytes) if new_bytes else float("inf"),
            chunks_total=len(digests),
            chunks_new=new_chunks,
        )

    def get_chunked_blob(self, key: str) -> bytes:
        manifest_key = _MANIFEST_BLOB_PREFIX + str(key)
        return self._assemble(self._parse_manifest(self.base.get_blob(manifest_key)))

    def delete_chunked_blob(self, key: str) -> None:
        manifest_key = _MANIFEST_BLOB_PREFIX + str(key)
        if not self.base.has_blob(manifest_key):
            return
        manifest = self._parse_manifest(self.base.get_blob(manifest_key))
        self.base.delete_blob(manifest_key)
        self._release_chunks(manifest["chunks"])

    def has_chunked_blob(self, key: str) -> bool:
        return self.base.has_blob(_MANIFEST_BLOB_PREFIX + str(key))

    # -- profile & stats ---------------------------------------------------
    @property
    def profile(self) -> StoreProfile:
        return self.base.profile

    def dedup_stats(self) -> Dict[str, float]:
        """Cumulative write-traffic dedup over this store's lifetime."""
        return {
            "logical_bytes": float(self._logical_bytes),
            "unique_bytes": float(self._unique_bytes),
            "dedup_ratio": (
                self._logical_bytes / self._unique_bytes
                if self._unique_bytes
                else float("inf") if self._logical_bytes else 1.0
            ),
            "live_chunks": float(len(self._refcounts)),
        }

    def live_chunk_count(self) -> int:
        """Number of distinct chunks currently referenced by any manifest."""
        return len(self._refcounts)

    def refcount(self, digest: str) -> int:
        """Reference count of one chunk digest (0 if unknown)."""
        return self._refcounts.get(digest, 0)

    # -- raw blob passthrough ----------------------------------------------
    def put_blob(self, key: str, payload: bytes) -> None:
        self.base.put_blob(key, payload)

    def get_blob(self, key: str) -> bytes:
        return self.base.get_blob(key)

    def delete_blob(self, key: str) -> None:
        self.base.delete_blob(key)

    def has_blob(self, key: str) -> bool:
        return self.base.has_blob(key)

    def blob_keys(self) -> List[str]:
        return self.base.blob_keys()
