"""Tests for checkpoint stores."""

import os

import pytest

from repro.checkpoint.chunked import ChunkedStore
from repro.checkpoint.store import (
    PFS_PROFILE,
    STORE_PROFILES,
    FileCheckpointStore,
    MemoryCheckpointStore,
    SimulatedObjectStore,
    StoreProfile,
)
from repro.checkpoint.multilevel import MultilevelPolicy
from repro.cluster.machine import ClusterModel


@pytest.fixture(params=["memory", "file", "object", "chunked"])
def store(request, tmp_path):
    """Every backend the engine can pick, behind the one store contract."""
    if request.param == "memory":
        return MemoryCheckpointStore()
    if request.param == "object":
        return SimulatedObjectStore()
    if request.param == "chunked":
        return ChunkedStore(MemoryCheckpointStore(), chunk_size=4)
    return FileCheckpointStore(tmp_path / "ckpts")


class TestCheckpointStores:
    def test_write_read_roundtrip(self, store):
        receipt = store.write(3, b"hello world")
        assert receipt.nbytes == 11
        assert store.read(3) == b"hello world"

    def test_overwrite(self, store):
        store.write(1, b"aaa")
        store.write(1, b"bbbb")
        assert store.read(1) == b"bbbb"

    def test_missing_id_raises(self, store):
        with pytest.raises(KeyError):
            store.read(99)

    def test_ids_sorted(self, store):
        for i in (5, 1, 3):
            store.write(i, b"x")
        assert store.ids() == [1, 3, 5]

    def test_delete(self, store):
        for i in range(5):
            store.write(i, b"x")
        store.delete(2)
        assert store.ids() == [0, 1, 3, 4]

    def test_receipt_seconds_is_wall_clock_diagnostic(self, store):
        # perf_counter delta: tiny, non-negative, never a modeled time.
        receipt = store.write(0, b"x" * 1024)
        assert 0.0 <= receipt.seconds < 5.0

    def test_blob_roundtrip(self, store):
        store.put_blob("chunk/abc123", b"blob-bytes")
        assert store.has_blob("chunk/abc123")
        assert store.get_blob("chunk/abc123") == b"blob-bytes"
        assert store.blob_keys() == ["chunk/abc123"]
        store.delete_blob("chunk/abc123")
        assert not store.has_blob("chunk/abc123")
        assert store.blob_keys() == []
        with pytest.raises(KeyError):
            store.get_blob("chunk/abc123")

    def test_blobs_do_not_collide_with_checkpoints(self, store):
        store.write(1, b"checkpoint")
        store.put_blob("1", b"blob")
        assert store.read(1) == b"checkpoint"
        assert store.get_blob("1") == b"blob"
        store.delete_blob("1")
        assert store.read(1) == b"checkpoint"


class TestStoreProfile:
    def test_pfs_profile_matches_pfs_model(self):
        """``PFS_PROFILE`` is the paper's PFS calibration, bit for bit."""
        nbytes = 3.5e9
        write_bandwidth = 78.8 * 1024.0**3 / 103.0
        read_bandwidth = 78.8 * 1024.0**3 / 95.0
        for procs in (1, 256, 2048):
            fixed = 0.5 + 0.008 * procs
            assert PFS_PROFILE.write_seconds(nbytes, procs) == (
                fixed + nbytes / write_bandwidth
            )
            assert PFS_PROFILE.read_seconds(nbytes, procs) == (
                fixed + nbytes / read_bandwidth
            )
            assert PFS_PROFILE.drain_seconds(nbytes, procs) == (
                fixed + nbytes / (write_bandwidth * 0.7)
            )

    def test_profiles_are_distinct(self):
        nbytes = 1e9
        costs = {
            name: profile.write_seconds(nbytes, 256)
            for name, profile in STORE_PROFILES.items()
        }
        assert len(set(costs.values())) == len(costs)
        assert costs["memory"] < costs["disk"] < costs["pfs"] < costs["object"]

    def test_drain_slower_than_write(self):
        for profile in STORE_PROFILES.values():
            if profile.async_bandwidth_fraction < 1.0:
                assert profile.drain_seconds(1e9) > profile.write_seconds(1e9)

    def test_scaled_multiplies_cost_exactly(self):
        """The one level rule: a level costs its multiplier times the profile's
        seconds — ``==``, for every built-in profile and every FTI level."""
        multipliers = MultilevelPolicy().cost_multiplier
        nbytes, static = 2e9, 5e8
        for profile in STORE_PROFILES.values():
            for procs in (1, 512):
                cluster = ClusterModel(num_processes=procs, profile=profile)
                rebuild = static / (
                    cluster.spec.static_rebuild_bandwidth_per_core * procs
                )
                for level, m in multipliers.items():
                    assert cluster.checkpoint_seconds(
                        nbytes, nbytes, compressed=False, write_cost_multiplier=m
                    ) == profile.write_seconds(nbytes, procs) * m, (profile.name, level)
                    assert cluster.drain_seconds(
                        nbytes, write_cost_multiplier=m
                    ) == profile.drain_seconds(nbytes, procs) * m, (profile.name, level)
                    assert cluster.recovery_seconds(
                        nbytes, nbytes, compressed=False, read_cost_multiplier=m
                    ) == profile.read_seconds(nbytes, procs) * m, (profile.name, level)
                    # Only the storage portion scales: compression and the
                    # static rebuild are level-independent.
                    assert cluster.checkpoint_seconds(
                        nbytes, nbytes, write_cost_multiplier=m
                    ) == cluster.compression_seconds(nbytes) + (
                        profile.write_seconds(nbytes, procs) * m
                    )
                    assert cluster.recovery_seconds(
                        nbytes, nbytes, static_bytes=static, compressed=False,
                        read_cost_multiplier=m,
                    ) == profile.read_seconds(nbytes, procs) * m + rebuild
        with pytest.raises(ValueError):
            ClusterModel().drain_seconds(nbytes, write_cost_multiplier=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StoreProfile(name="bad", write_bandwidth=0.0, read_bandwidth=1.0)
        with pytest.raises(ValueError):
            StoreProfile(name="bad", write_bandwidth=1.0, read_bandwidth=1.0, latency=-1)


class TestSimulatedObjectStore:
    def test_op_counts(self):
        store = SimulatedObjectStore()
        store.write(1, b"a")
        store.write(2, b"b")
        store.read(1)
        store.delete(2)
        store.put_blob("k", b"v")
        store.get_blob("k")
        store.delete_blob("k")
        assert store.op_counts == {"put": 3, "get": 2, "delete": 2}


class TestFileSpecific:
    def test_files_on_disk(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "dir")
        store.write(12, b"data")
        files = list((tmp_path / "dir").iterdir())
        assert len(files) == 1
        assert files[0].name == "ckpt_00000012.bin"

    def test_ignores_foreign_files(self, tmp_path):
        directory = tmp_path / "dir"
        store = FileCheckpointStore(directory)
        store.write(1, b"x")
        (directory / "notes.txt").write_text("hi")
        (directory / "ckpt_bad.bin").write_text("hi")
        assert store.ids() == [1]

    def test_blob_keys_escape_roundtrip(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "dir")
        keys = ["chunk/deadbeef", "manifest/replica/L2/7", "odd%name"]
        for key in keys:
            store.put_blob(key, key.encode())
        assert store.blob_keys() == sorted(keys)
        for key in keys:
            assert store.get_blob(key) == key.encode()

    def test_kill_mid_write_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        """A crash before the atomic rename must leave the old payload intact."""
        directory = tmp_path / "dir"
        store = FileCheckpointStore(directory)
        store.write(5, b"old-complete-checkpoint")

        real_replace = os.replace

        def killed_replace(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr(os, "replace", killed_replace)
        with pytest.raises(OSError):
            store.write(5, b"new-payload-that-never-lands")
        monkeypatch.setattr(os, "replace", real_replace)

        # Old payload is still fully readable; the torn write left only a
        # temp file that neither ids() nor read() pick up.
        assert store.read(5) == b"old-complete-checkpoint"
        assert store.ids() == [5]
        leftovers = [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == ["ckpt_00000005.bin.tmp"]

        # A fresh store over the same directory sees only the good payload,
        # and the next write republishes cleanly over the leftover.
        reopened = FileCheckpointStore(directory)
        assert reopened.ids() == [5]
        assert reopened.read(5) == b"old-complete-checkpoint"
        reopened.write(5, b"recovered")
        assert reopened.read(5) == b"recovered"

    def test_kill_mid_write_first_checkpoint_never_visible(self, tmp_path, monkeypatch):
        directory = tmp_path / "dir"
        store = FileCheckpointStore(directory)

        def killed_replace(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr(os, "replace", killed_replace)
        with pytest.raises(OSError):
            store.write(0, b"half-written")
        monkeypatch.undo()
        assert store.ids() == []
        with pytest.raises(KeyError):
            store.read(0)
