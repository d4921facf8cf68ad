"""Tests for content-addressed chunk dedup (:class:`ChunkedStore`)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.chunked import ChunkedStore, chunk_digest
from repro.checkpoint.store import (
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
)

CHUNK = 64  # small chunk size so tests exercise multi-chunk payloads cheaply


@pytest.fixture(params=["memory", "file", "object"])
def store(request, tmp_path):
    if request.param == "memory":
        base = MemoryCheckpointStore()
    elif request.param == "object":
        base = SimulatedObjectStore()
    else:
        base = FileCheckpointStore(tmp_path / "ckpts")
    return ChunkedStore(base, chunk_size=CHUNK)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "size",
        [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 1],
    )
    def test_boundary_sizes(self, store, size):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        receipt = store.write(0, payload)
        assert receipt.nbytes == size
        assert store.read(0) == payload

    def test_overwrite_replaces_manifest(self, store):
        store.write(1, b"a" * CHUNK * 2)
        store.write(1, b"b" * CHUNK * 3)
        assert store.read(1) == b"b" * CHUNK * 3
        assert store.ids() == [1]

    def test_missing_id_raises(self, store):
        with pytest.raises(KeyError):
            store.read(42)


class TestDedup:
    def test_duplicate_payload_adds_zero_unique_bytes(self, store):
        payload = b"d" * (4 * CHUNK)
        first = store.write(0, payload)
        assert first.unique_bytes == CHUNK  # all four chunks identical
        second = store.write(1, payload)
        assert second.unique_bytes == 0
        assert second.dedup_ratio == float("inf")
        assert store.read(0) == store.read(1) == payload

    def test_near_duplicate_ships_only_changed_chunks(self, store):
        base = bytes(range(256)) * (8 * CHUNK // 256 + 1)
        base = base[: 8 * CHUNK]
        store.write(0, base)
        mutated = bytearray(base)
        mutated[3 * CHUNK] ^= 0xFF  # flip one byte in chunk 3
        receipt = store.write(1, bytes(mutated))
        assert receipt.unique_bytes == CHUNK
        assert receipt.chunks_new == 1
        assert receipt.chunks_total == 8
        assert receipt.dedup_ratio == pytest.approx(8.0)
        assert store.read(1) == bytes(mutated)

    def test_preview_write_matches_receipt(self, store):
        payload = b"p" * (3 * CHUNK) + b"q" * CHUNK
        nbytes, unique = store.preview_write(payload)
        receipt = store.write(0, payload)
        assert (nbytes, unique) == (receipt.nbytes, receipt.unique_bytes)
        # After commit, the same payload previews at zero new bytes.
        assert store.preview_write(payload) == (len(payload), 0)

    def test_dedup_stats_cumulative(self, store):
        payload = b"s" * (2 * CHUNK)
        store.write(0, payload)
        store.write(1, payload)
        stats = store.dedup_stats()
        assert stats["logical_bytes"] == 4 * CHUNK
        assert stats["unique_bytes"] == CHUNK
        assert stats["dedup_ratio"] == pytest.approx(4.0)
        # Deletes do not roll back traffic counters.
        store.delete(0)
        store.delete(1)
        assert store.dedup_stats()["logical_bytes"] == 4 * CHUNK


class TestRefcounts:
    def test_delete_never_drops_live_chunk(self, store):
        payload = b"r" * (2 * CHUNK)
        store.write(0, payload)
        store.write(1, payload)
        digest = chunk_digest(b"r" * CHUNK)
        assert store.refcount(digest) == 4  # 2 chunks x 2 manifests
        store.delete(0)
        assert store.refcount(digest) == 2
        assert store.read(1) == payload  # survivor still fully readable
        store.delete(1)
        assert store.refcount(digest) == 0
        assert store.live_chunk_count() == 0

    def test_delete_absent_id_is_noop(self, store):
        store.write(0, b"x" * CHUNK)
        before = store.live_chunk_count()
        store.delete(99)
        assert store.live_chunk_count() == before

    def test_reopen_rebuilds_refcounts(self, tmp_path):
        directory = tmp_path / "pool"
        store = ChunkedStore(FileCheckpointStore(directory), chunk_size=CHUNK)
        payload = b"m" * (3 * CHUNK)
        store.write(0, payload)
        store.write(1, payload)
        store.put_chunked_blob("replica/L2/1", payload)

        reopened = ChunkedStore(FileCheckpointStore(directory), chunk_size=CHUNK)
        digest = chunk_digest(b"m" * CHUNK)
        assert reopened.refcount(digest) == 9  # 3 chunks x 3 manifests
        assert reopened.read(0) == payload
        assert reopened.get_chunked_blob("replica/L2/1") == payload
        # Deleting two of three owners must keep the chunk alive.
        reopened.delete(0)
        reopened.delete_chunked_blob("replica/L2/1")
        assert reopened.read(1) == payload


class TestChunkedBlobs:
    def test_replica_of_pooled_payload_is_free(self, store):
        payload = bytes(range(256)) * (4 * CHUNK // 256 + 1)
        payload = payload[: 4 * CHUNK]
        store.write(0, payload)
        receipt = store.put_chunked_blob("replica/L2/0", payload)
        assert receipt.unique_bytes == 0
        assert store.get_chunked_blob("replica/L2/0") == payload
        # Deleting the checkpoint keeps the replica readable (chunks live).
        store.delete(0)
        assert store.get_chunked_blob("replica/L2/0") == payload
        store.delete_chunked_blob("replica/L2/0")
        assert not store.has_chunked_blob("replica/L2/0")
        assert store.live_chunk_count() == 0

    def test_overwrite_blob_releases_old_chunks(self, store):
        store.put_chunked_blob("k", b"a" * CHUNK)
        store.put_chunked_blob("k", b"b" * CHUNK)
        assert store.get_chunked_blob("k") == b"b" * CHUNK
        assert store.refcount(chunk_digest(b"a" * CHUNK)) == 0


class TestManifestFormat:
    def test_manifest_is_documented_json(self, store):
        store.write(7, b"f" * (CHUNK + 1))
        raw = store.base.read(7)
        manifest = json.loads(raw.decode("utf-8"))
        assert manifest["magic"] == "repro-chunk-manifest"
        assert manifest["version"] == 1
        assert manifest["length"] == CHUNK + 1
        assert manifest["chunk_size"] == CHUNK
        assert len(manifest["chunks"]) == 2
        for digest in manifest["chunks"]:
            assert store.base.has_blob(f"chunk/{digest}")

    def test_non_manifest_payload_rejected(self, store):
        store.base.write(0, b"not json at all")
        with pytest.raises((ValueError, json.JSONDecodeError)):
            store.read(0)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            ChunkedStore(MemoryCheckpointStore(), chunk_size=0)


class TestHypothesisRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=5 * CHUNK + 3))
    def test_single_payload_roundtrip_bitwise(self, payload):
        store = ChunkedStore(MemoryCheckpointStore(), chunk_size=CHUNK)
        store.write(0, payload)
        assert store.read(0) == payload

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=3 * CHUNK + 1), min_size=1, max_size=6
        )
    )
    def test_many_payloads_with_duplicates(self, payloads):
        store = ChunkedStore(MemoryCheckpointStore(), chunk_size=CHUNK)
        # Interleave duplicates to stress refcounting.
        everything = payloads + payloads[::2]
        for i, payload in enumerate(everything):
            store.write(i, payload)
        for i, payload in enumerate(everything):
            assert store.read(i) == payload
        stats = store.dedup_stats()
        assert stats["unique_bytes"] <= stats["logical_bytes"] or not payloads

    @settings(max_examples=40, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=4 * CHUNK),
        copies=st.integers(min_value=2, max_value=5),
        drop=st.integers(min_value=0, max_value=4),
    )
    def test_partial_delete_keeps_survivors_bitwise(self, payload, copies, drop):
        store = ChunkedStore(MemoryCheckpointStore(), chunk_size=CHUNK)
        for i in range(copies):
            store.write(i, payload)
        for i in range(min(drop, copies - 1)):
            store.delete(i)
        for i in range(min(drop, copies - 1), copies):
            assert store.read(i) == payload

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=4 * CHUNK + 7))
    def test_manifest_restore_bitwise_after_reopen(self, payload, tmp_path_factory):
        directory = tmp_path_factory.mktemp("pool")
        ChunkedStore(FileCheckpointStore(directory), chunk_size=CHUNK).write(0, payload)
        reopened = ChunkedStore(FileCheckpointStore(directory), chunk_size=CHUNK)
        assert reopened.read(0) == payload
