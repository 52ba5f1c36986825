"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.net import Simulator

from .oracles.engine import live_pending_scan


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(9.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9.0

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(2.0, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 3.0)]


class TestRunControl:
    def test_run_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "at-5")
        sim.schedule(6.0, fired.append, "at-6")
        sim.run(until=5.0)
        assert fired == ["at-5"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["at-5", "at-6"]

    def test_run_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_with_cancelled_debris_clamps_to_until(self):
        """Regression: a capped run whose queue holds only cancelled
        events is drained — ``now`` must still clamp to ``until``."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        debris = sim.schedule(3.0, lambda: None)
        debris.cancel()
        sim.run(until=50.0, max_events=2)
        assert sim.now == 50.0

    def test_max_events_midstream_does_not_clamp(self):
        """A cap that stops with live events still due before ``until``
        leaves ``now`` at the last fired event."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(until=50.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == 2.0
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_max_events_with_remaining_events_beyond_until_clamps(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(99.0, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0

    def test_exact_cap_on_drained_queue_clamps(self):
        """Both exit conditions at once (cap == event count, queue
        empty): the clamp still applies."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=30.0, max_events=2)
        assert sim.now == 30.0

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 4


class TestCancellation:
    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # must not raise


class TestLivePendingCounter:
    """The O(1) live-event counter must track the O(heap) scan exactly
    (the resilience invariants call ``live_pending`` after every chaos
    run, so it has to be cheap *and* right)."""

    def test_counter_matches_scan_under_mixed_churn(self):
        sim = Simulator()
        handles = [sim.schedule(float(i % 7) + 0.5, lambda: None)
                   for i in range(50)]
        assert sim.live_pending == 50 == live_pending_scan(sim)
        for h in handles[::3]:
            h.cancel()
        assert sim.live_pending == live_pending_scan(sim)
        sim.run(until=3.0)
        assert sim.live_pending == live_pending_scan(sim)
        sim.run()
        assert sim.live_pending == 0 == live_pending_scan(sim)

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        h.cancel()
        assert sim.live_pending == 1 == live_pending_scan(sim)
        other.cancel()
        assert sim.live_pending == 0

    def test_cancel_after_fire_does_not_decrement(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        keeper = sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        h.cancel()
        h.cancel()
        assert sim.live_pending == 1 == live_pending_scan(sim)
        keeper.cancel()
        assert sim.live_pending == 0

    def test_self_cancel_inside_callback(self):
        sim = Simulator()
        box = {}

        def cb():
            box["handle"].cancel()  # cancelling the firing event: no-op

        box["handle"] = sim.schedule(1.0, cb)
        sim.run()
        assert sim.live_pending == 0 == live_pending_scan(sim)
        assert sim.events_fired == 1

    def test_counter_survives_nested_scheduling_and_cancel(self):
        sim = Simulator()

        def outer():
            inner = sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            inner.cancel()

        sim.schedule(1.0, outer)
        assert sim.live_pending == 1
        sim.run(until=1.0)
        assert sim.live_pending == 1 == live_pending_scan(sim)
        sim.run()
        assert sim.live_pending == 0


    def test_queued_lists_cancelled_and_live_handles(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in (3, 1, 2)]
        handles[0].cancel()
        assert set(map(id, sim.queued())) == set(map(id, handles))
        sim.run(until=1.0)
        assert set(map(id, sim.queued())) == {id(handles[0]), id(handles[2])}


class TestDeterminism:
    def test_identical_replay(self):
        def build():
            sim = Simulator()
            trace = []

            def tick(tag, dt):
                trace.append((sim.now, tag))
                if sim.now + dt < 20:
                    sim.schedule(dt, tick, tag, dt)

            sim.schedule(0.0, tick, "a", 1.5)
            sim.schedule(0.0, tick, "b", 2.0)
            sim.run(until=20.0)
            return trace

        first = build()
        assert first == build()
        assert first[:4] == [(0.0, "a"), (0.0, "b"), (1.5, "a"), (2.0, "b")]
