"""Tests for the simulated clock and discrete-event loop."""

import pytest

from repro.simnet import EventLoop, SimClock
from repro.simnet.events import MAX_EVENTS


def chain(loop, scheduled, cancelled):
    """``scheduled`` events one second apart, each scheduling the next
    as it fires (the heap holds one at a time); the last ``cancelled``
    are cancelled as soon as they are scheduled.  Returns the count of
    those fired, as a one-item list."""
    fired = [0]

    def fire():
        fired[0] += 1
        arm(fired[0] + 1)

    def arm(index):
        if index <= scheduled:
            handle = loop.schedule(1.0, fire)
            if index > scheduled - cancelled:
                loop.cancel(handle)

    arm(1)
    return fired


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_advance_to_nan_rejected(self):
        """NaN compares false both ways, so "not backwards" is written
        as "forwards or level": NaN is neither."""
        clock = SimClock()
        clock.advance_to(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(float("nan"))
        assert clock.now == 2.0


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

    def test_step_fires_the_next_live_event_and_no_other(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.cancel(loop.schedule(1.0, lambda: fired.append("cancelled")))
        loop.schedule(1.5, lambda: fired.append("a"))
        assert loop.step() is True
        assert (fired, loop.now, loop.processed) == (["a"], 1.5, 1)
        assert loop.step() is True
        assert (fired, loop.now, loop.processed) == (["a", "b"], 2.0, 2)
        assert loop.step() is False
        assert (loop.now, loop.processed) == (2.0, 2)

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

    def test_a_nan_delay_or_instant_is_refused_and_the_clock_stays(self):
        """A NaN time once entered the heap (``nan < 0`` is False), and
        running it set the clock to NaN, after which every schedule
        passed its check."""
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        fired = []
        with pytest.raises(ValueError):
            loop.schedule(float("nan"), lambda: fired.append("delay"))
        with pytest.raises(ValueError):
            loop.schedule_at(float("nan"), lambda: fired.append("instant"))
        assert loop.pending == 0
        loop.run()
        assert (loop.now, fired) == (1.0, [])
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

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

    def test_cancelled_entries_are_dropped_without_reordering(self):
        """A loop whose timers are mostly cancelled (a wire core's reply
        deadlines) rebuilds its heap without them once they outnumber
        the live ones; what still fires fires in the same order."""
        loop = EventLoop()
        early = [loop.schedule(0.1, lambda: None) for _ in range(10)]
        for handle in early:
            loop.cancel(handle)
        loop.run(until=0.5)  # the early ones surface and are popped
        fired = []
        handles = [
            loop.schedule(1.0 + (index % 7) * 0.25, lambda i=index: fired.append(i))
            for index in range(300)
        ]
        kept = [index for index in range(300) if index % 5 == 0]
        for index, handle in enumerate(handles):
            if index % 5:
                assert loop.cancel(handle)
        assert loop.pending == len(kept)
        assert len(loop._heap) < 2 * len(kept) + 33
        loop.run()
        assert fired == sorted(kept, key=lambda i: (1.0 + (i % 7) * 0.25, i))

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
        with pytest.raises(RuntimeError, match=f"exceeded {MAX_EVENTS} events"):
            loop.run()
        assert loop.processed == MAX_EVENTS

    @pytest.mark.parametrize(
        "scheduled, cancelled, until, runaway",
        [
            (MAX_EVENTS, 0, None, False),  # exactly MAX_EVENTS drain the queue
            (MAX_EVENTS + 1, 0, None, True),  # one event left over
            (MAX_EVENTS + 1, 1, None, False),  # what is left is cancelled
            (MAX_EVENTS + 1, 0, MAX_EVENTS + 0.5, False),  # past ``until``
            (MAX_EVENTS + 1, 0, MAX_EVENTS + 1.0, True),  # ... unless due at it
        ],
    )
    def test_max_events_is_exceeded_only_when_events_remain(
        self, scheduled, cancelled, until, runaway
    ):
        loop = EventLoop()
        fired = chain(loop, scheduled, cancelled)
        if runaway:
            with pytest.raises(RuntimeError, match="events; likely"):
                loop.run(until=until)
        else:
            assert loop.run(until=until) == MAX_EVENTS
        assert fired == [MAX_EVENTS]

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

    @pytest.mark.parametrize(
        "scheduled, cancelled, timeout_at, runaway",
        [
            # exactly MAX_EVENTS, nothing else: a timeout
            (MAX_EVENTS, 0, MAX_EVENTS + 10.0, False),
            (MAX_EVENTS + 1, 0, MAX_EVENTS + 10.0, True),  # one more still due
            (MAX_EVENTS + 1, 1, MAX_EVENTS + 10.0, False),  # what is left is cancelled
            (MAX_EVENTS + 1, 0, MAX_EVENTS + 0.5, False),  # due after the deadline
            (MAX_EVENTS + 1, 0, MAX_EVENTS + 1.0, True),  # ... unless due at it
        ],
    )
    def test_run_until_raises_only_when_an_event_is_still_due(
        self, scheduled, cancelled, timeout_at, runaway
    ):
        loop = EventLoop()
        fired = chain(loop, scheduled, cancelled)
        if runaway:
            with pytest.raises(RuntimeError, match="events; likely"):
                loop.run_until(lambda: False, timeout_at)
        else:
            assert loop.run_until(lambda: False, timeout_at) is False
            assert loop.now == timeout_at
        assert fired == [MAX_EVENTS]


class TestTheLoopRefusesToNest:
    """Only the top level waits: an event that runs the loop raises."""

    @pytest.mark.parametrize(
        "inner",
        [
            lambda loop: loop.run(),
            lambda loop: loop.run(until=loop.now + 1.0),
            lambda loop: loop.run_until(lambda: False, loop.now + 1.0),
            lambda loop: loop.step(),
        ],
        ids=["run", "run-until-time", "run_until", "step"],
    )
    @pytest.mark.parametrize("outer", ["run", "run_until"])
    def test_a_nested_run_raises(self, inner, outer):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: inner(loop))
        loop.schedule(2.0, lambda: fired.append(loop.now))
        with pytest.raises(RuntimeError, match="already running"):
            if outer == "run":
                loop.run()
            else:
                loop.run_until(lambda: False, 5.0)
        assert loop.now == 1.0 and fired == []
        # The refusal leaves the loop usable from the top level.
        assert loop.run() == 1 and fired == [2.0]

    def test_a_predicate_that_already_holds_is_still_a_wait(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: loop.run_until(lambda: True, loop.now))
        with pytest.raises(RuntimeError, match="already running"):
            loop.run()


class TestEventHandle:
    """One object per event is the heap entry and the cancel handle
    (cancelling before firing, twice, and ties: ``TestEventLoop``)."""

    def test_cancel_after_firing_returns_false(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        loop.run()
        assert loop.cancel(handle) is False
        assert loop.processed == 1

    def test_cancel_after_firing_from_inside_the_callback_returns_false(self):
        loop = EventLoop()
        answers = []
        handles = []
        handles.append(loop.schedule(1.0, lambda: answers.append(loop.cancel(handles[0]))))
        loop.run()
        assert answers == [False]

    def test_pending_counts_scheduled_minus_fired_minus_cancelled(self):
        loop = EventLoop()
        handles = [loop.schedule(float(when), lambda: None) for when in range(1, 6)]
        assert loop.pending == 5
        loop.cancel(handles[4])
        assert loop.pending == 4
        loop.cancel(handles[4])
        assert loop.pending == 4
        loop.run(until=2.0)
        assert loop.pending == 2
        loop.cancel(handles[0])  # already fired: no change
        assert loop.pending == 2
        loop.run()
        assert loop.pending == 0

    def test_ties_fire_in_insertion_order_across_cancellations(self):
        loop = EventLoop()
        fired = []
        handles = [
            loop.schedule_at(1.0, lambda index=index: fired.append(index))
            for index in range(8)
        ]
        loop.cancel(handles[2])
        loop.cancel(handles[5])
        later = loop.schedule_at(1.0, lambda: fired.append("late"))
        loop.run()
        assert fired == [0, 1, 3, 4, 6, 7, "late"]
        assert loop.cancel(later) is False
