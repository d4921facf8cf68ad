"""Tests for the exponential failure injector."""

import numpy as np
import pytest

from repro.cluster.failures import FailureInjector


class TestFailureInjector:
    def test_disabled_injector_never_fails(self):
        injector = FailureInjector(None)
        assert injector.peek() == float("inf")
        assert injector.strike_time(0.0) == float("inf")

    def test_reproducible_with_seed(self):
        a = FailureInjector(3600.0, seed=5).peek()
        b = FailureInjector(3600.0, seed=5).peek()
        assert a == b

    def test_latent_clamp_moves_a_past_arrival_to_the_window_start(self):
        injector = FailureInjector(100.0, seed=0)
        t = injector.peek()
        assert injector.strike_time(t - 1.0) == t
        # Without the clamp a latent arrival keeps its stale time; with it,
        # the arrival strikes at the start of the window that finds it.
        assert injector.strike_time(t + 1.0) == t
        injector.latent_clamp = True
        assert injector.strike_time(t - 1.0) == t
        assert injector.strike_time(t + 1.0) == t + 1.0

    def test_consume_rearms(self):
        injector = FailureInjector(100.0, seed=1)
        first = injector.peek()
        event = injector.consume(first, "compute")
        assert event.time == first
        assert event.phase == "compute"
        assert injector.peek() > first
        assert injector.count == 1

    def test_consume_disabled_raises(self):
        with pytest.raises(RuntimeError):
            FailureInjector(None).consume(1.0)

    def test_mean_interarrival_close_to_mtti(self):
        injector = FailureInjector(100.0, seed=42)
        times = []
        t = 0.0
        for _ in range(2000):
            nxt = injector.peek()
            times.append(nxt - t)
            t = nxt
            injector.consume(nxt)
        assert np.mean(times) == pytest.approx(100.0, rel=0.1)

    def test_invalid_mtti(self):
        with pytest.raises(ValueError):
            FailureInjector(-1.0)

    def test_latent_failure_strikes_in_next_window(self):
        # A consume() can re-arm the next failure *inside* a phase whose full
        # cost was already charged to the clock (interrupted attempts are
        # billed whole).  Such a latent failure must strike in the next
        # window that checks — the old strict `start < t` test left it in
        # the past forever, silently disabling injection for the rest of
        # the run.
        from repro.cluster.failures import ScriptedFailureModel

        injector = FailureInjector(model=ScriptedFailureModel([5.0, 7.0, 300.0]))
        injector.latent_clamp = True
        assert injector.strike_time(0.0) == 5.0
        injector.consume(5.0, "recovery")
        # Re-armed at t=7, but the clock already sits at 10.
        assert injector.peek() == 7.0
        assert injector.strike_time(10.0) == 10.0
        injector.consume(10.0, "recovery")
        assert injector.peek() == 300.0
        assert injector.strike_time(20.0) == 300.0
