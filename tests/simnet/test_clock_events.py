"""Tests for the simulated clock and discrete-event loop."""

import pytest

from repro.simnet import EventLoop, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_backwards_rejected(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_advance_by(self):
        clock = SimClock(start=1.0)
        clock.advance_by(2.0)
        assert clock.now == 3.0

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_by(-0.1)


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("late"))
        loop.schedule(1.0, lambda: fired.append("early"))
        loop.run()
        assert fired == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        loop = EventLoop()
        fired = []
        for index in range(5):
            loop.schedule(1.0, lambda i=index: fired.append(i))
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_equal_time_events_fire_in_scheduling_order_uncompared(self):
        """The heap orders ``(when, seq)`` and nothing else: with every
        event at one instant, cancellations in between and a heap
        hundreds deep, what was scheduled is never itself compared."""

        class Callback:
            def __init__(self, fired, index):
                self.fired, self.index = fired, index

            def __call__(self):
                self.fired.append(self.index)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

            __gt__ = __le__ = __ge__ = __lt__

        loop = EventLoop()
        fired = []
        handles = [
            loop.schedule_at(1.0, Callback(fired, index)) for index in range(300)
        ]
        for handle in handles[::3]:
            assert loop.cancel(handle)
        assert loop.run_until(lambda: len(fired) == 50, timeout_at=2.0)
        loop.step()
        loop.run()
        assert fired == [index for index in range(300) if index % 3]
        assert loop.pending == 0

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(4.2, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [4.2]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append("x"))
        assert loop.cancel(handle) is True
        loop.run()
        assert fired == []

    def test_cancel_twice_returns_false(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        assert loop.cancel(handle) is True
        assert loop.cancel(handle) is False

    def test_run_until_time_stops_and_aligns_clock(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.schedule(5.0, lambda: fired.append("b"))
        loop.run(until=2.0)
        assert fired == ["a"]
        assert loop.now == 2.0

    def test_events_may_schedule_events(self):
        loop = EventLoop()
        fired = []

        def first():
            fired.append("first")
            loop.schedule(1.0, lambda: fired.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert fired == ["first", "second"]
        assert loop.now == 2.0

    def test_runaway_loop_detected(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(0.1, reschedule)

        loop.schedule(0.1, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            loop.run(max_events=100)

    def test_pending_and_processed_counters(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert loop.pending == 2
        loop.run()
        assert loop.pending == 0
        assert loop.processed == 2

    def test_run_until_predicate_true(self):
        loop = EventLoop()
        flag = []
        loop.schedule(1.0, lambda: flag.append(1))
        assert loop.run_until(lambda: bool(flag), timeout_at=5.0) is True
        assert loop.now == 1.0

    def test_run_until_timeout_advances_clock(self):
        loop = EventLoop()
        assert loop.run_until(lambda: False, timeout_at=3.0) is False
        assert loop.now == 3.0

    def test_run_until_does_not_execute_past_timeout(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda: fired.append("too-late"))
        loop.run_until(lambda: False, timeout_at=2.0)
        assert fired == []
        assert loop.pending == 1
