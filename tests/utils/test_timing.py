"""Tests for repro.utils.timing."""

import pytest

from repro.utils.timing import VirtualClock


class TestVirtualClock:
    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(10.0, "compute")
        clock.advance(5.0, "checkpoint")
        assert clock.now == pytest.approx(15.0)

    def test_breakdown_by_category(self):
        clock = VirtualClock()
        clock.advance(10.0, "compute")
        clock.advance(5.0, "compute")
        clock.advance(3.0, "recovery")
        assert clock.time_in("compute") == pytest.approx(15.0)
        assert clock.time_in("recovery") == pytest.approx(3.0)
        assert clock.time_in("unknown") == 0.0

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_event_recording(self):
        clock = VirtualClock(record_events=True)
        clock.advance(1.0, "compute")
        clock.advance(2.0, "checkpoint")
        assert clock.events == [(1.0, "compute"), (3.0, "checkpoint")]
