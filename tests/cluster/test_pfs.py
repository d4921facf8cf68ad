"""Tests for the PFS cost model (``PFS_PROFILE``, the default store profile)."""

from dataclasses import replace

import pytest

from repro.checkpoint.store import PFS_PROFILE, StoreProfile

_GIB = 1024.0**3


class TestPFSModel:
    def test_paper_anchor_point(self):
        """One 78.8 GiB traditional checkpoint from 2,048 processes ~ 120 s."""
        seconds = PFS_PROFILE.write_seconds(78.8 * _GIB, 2048)
        assert seconds == pytest.approx(120.0, rel=0.05)

    def test_write_time_scales_with_bytes(self):
        assert PFS_PROFILE.write_seconds(2 * _GIB) > PFS_PROFILE.write_seconds(1 * _GIB)

    def test_contention_grows_with_processes(self):
        assert PFS_PROFILE.write_seconds(_GIB, 2048) > PFS_PROFILE.write_seconds(
            _GIB, 256
        )

    def test_read_faster_or_equal_bandwidth(self):
        assert PFS_PROFILE.read_seconds(10 * _GIB) <= PFS_PROFILE.write_seconds(
            10 * _GIB
        )

    def test_zero_bytes_costs_latency_only(self):
        pfs = replace(PFS_PROFILE, latency=0.5, per_process_overhead=0.0)
        for op in (pfs.write_seconds, pfs.read_seconds, pfs.drain_seconds):
            assert op(0.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StoreProfile("bad", write_bandwidth=0.0, read_bandwidth=1.0)
        for op in (
            PFS_PROFILE.write_seconds,
            PFS_PROFILE.read_seconds,
            PFS_PROFILE.drain_seconds,
        ):
            with pytest.raises(ValueError):
                op(-1.0)
            with pytest.raises(ValueError):
                op(1.0, 0)
