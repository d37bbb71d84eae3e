"""Discrete-event scheduler.

The event loop is the single driver of simulated time.  Components schedule
callbacks (message deliveries, heartbeat timers, cache expiries) and the
loop executes them in timestamp order, advancing the shared
:class:`~repro.simnet.clock.SimClock` as it goes.

Ties are broken by insertion order so that runs are fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .clock import SimClock

#: Cancelled entries the heap may hold before :meth:`EventLoop.cancel`
#: considers rebuilding it without them.
COMPACT_AT = 32
#: Events one ``run`` / ``run_until`` may fire: the safety valve against
#: runaway self-rescheduling cycles.
MAX_EVENTS = 1_000_000


class EventHandle(list):
    """One scheduled event, ``[when, seq, callback]``: the loop's heap
    entry and the handle :meth:`EventLoop.cancel` takes, in one object.

    The heap orders entries by their two leading numbers, compared in C
    as list items; ``seq`` is unique, so a callback is never compared.
    The callback slot is cleared when the event fires or is cancelled:
    an entry whose callback is None is skipped when it surfaces, and
    cannot be cancelled again.

    To a holder the handle is opaque: pass it to :meth:`EventLoop.cancel`
    and nothing else.  It is a list only so the heap can order it in C;
    indexing or mutating it from outside the loop breaks the heap
    invariant or revives a cancelled event.
    """

    __slots__ = ()


@dataclass(frozen=True)
class TopicEvent:
    """One publication on a network topic (see :meth:`Network.publish`).

    Topic routing is the substrate of the push-invalidation bus
    (:mod:`repro.revocation.bus`): a publisher addresses a *topic* rather
    than a node, and the network fans the payload out to every subscriber
    over its individual link.  The network keeps a log of these events so
    experiments can audit fan-out volume separately from unicast traffic.
    """

    topic: str
    kind: str
    publisher: str
    published_at: float
    subscriber_count: int
    payload: Any = None


class EventLoop:
    """A deterministic discrete-event loop.

    Example:
        >>> loop = EventLoop()
        >>> fired = []
        >>> _ = loop.schedule(2.0, lambda: fired.append("b"))
        >>> _ = loop.schedule(1.0, lambda: fired.append("a"))
        >>> loop.run()
        >>> fired
        ['a', 'b']
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: Cancelled entries stay until they surface, or until
        #: :meth:`cancel` rebuilds the heap without them.
        self._heap: list[EventHandle] = []
        self._cancelled = 0
        self._seq = itertools.count()
        self._processed = 0
        #: Set while :meth:`run` or :meth:`run_until` is on the stack.
        self._running = False

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` simulated seconds from now."""
        if not delay >= 0:  # NaN is refused too: it compares false
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        entry = EventHandle((self.clock.now + delay, next(self._seq), callback))
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if not when >= self.clock.now:  # NaN is refused too
            raise ValueError(
                f"cannot schedule at {when}, clock already at {self.clock.now}"
            )
        entry = EventHandle((when, next(self._seq), callback))
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event.  Returns True if it had not yet fired.

        Once cancelled entries outnumber live ones (and there are more
        than :data:`COMPACT_AT`) the heap is rebuilt without them, so a
        component that cancels most of its timers — a wire core's reply
        deadlines — does not make every other push and pop pay for
        them.  Entries keep their ``(when, seq)``: the firing order is
        the same either way.
        """
        if handle[2] is None:
            return False
        handle[2] = None
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > COMPACT_AT and 2 * self._cancelled > len(heap):
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapq.heapify(heap)
            self._cancelled = 0
        return True

    def step(self) -> bool:
        """Execute the next event, advancing the clock.

        Returns:
            True if an event was executed, False if the queue was empty.

        Raises:
            RuntimeError: the loop is already running (see
                :meth:`run_until`).
        """
        fired = self._processed
        return self._drive(lambda: self._processed > fired, None) > 0

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout_at: float,
    ) -> bool:
        """Process events until ``predicate`` holds or ``timeout_at`` passes.

        This is the driver wait behind ``Component.call`` and a PEP's
        ``authorize``: the caller sends a request, then drives the loop
        until the reply's continuation flips a flag.  Only the top level
        — a driver, a setup step, a script — may wait: the loop refuses
        to nest, so a handler or timer that waits raises here.  A
        component that needs a reply inside an event asks instead
        (``Component.ask``) and continues from the reply's event.

        Returns:
            True if the predicate became true, False on timeout (the
            clock is then positioned at ``timeout_at``).

        Raises:
            RuntimeError: the loop is already running (a nested wait),
                or :data:`MAX_EVENTS` ran and another is still due by
                ``timeout_at`` (exactly :data:`MAX_EVENTS` that leave
                nothing due are a plain timeout).
        """
        self._drive(predicate, timeout_at)
        return predicate()

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue drains or ``until`` is reached.

        Args:
            until: stop once the next event would fire after this time; the
                clock is advanced to ``until`` on exit so timers line up.

        A safety valve against runaway scheduling loops raises once
        :data:`MAX_EVENTS` have run and another is still due (exactly
        :data:`MAX_EVENTS` that drain the queue are a clean finish).

        Returns:
            Number of events executed by this call.

        Raises:
            RuntimeError: the loop is already running (see
                :meth:`run_until`), or the safety valve tripped.
        """
        return self._drive(None, until)

    def _drive(
        self, predicate: Optional[Callable[[], bool]], until: Optional[float]
    ) -> int:
        """Fire the events due by ``until`` (any, if None) until
        ``predicate`` holds (never, if None); once none is due, the
        clock moves up to ``until``.  Returns the number fired.  The one
        place the loop runs, so the one place it refuses to nest."""
        if self._running:
            raise RuntimeError(
                "the event loop is already running: an event must not wait "
                "for another — ask (Component.ask) and continue from the reply"
            )
        self._running = True
        heap, clock, pop = self._heap, self.clock, heapq.heappop
        try:
            executed = 0
            while predicate is None or not predicate():
                # Cancelled entries on top of the heap are popped here,
                # as they surface.
                while heap and heap[0][2] is None:
                    pop(heap)
                    self._cancelled -= 1
                if not heap or (until is not None and heap[0][0] > until):
                    if until is not None and clock.now < until:
                        clock.advance_to(until)
                    break
                if executed >= MAX_EVENTS:
                    raise RuntimeError(
                        f"event loop exceeded {MAX_EVENTS} events; "
                        "likely a self-rescheduling cycle"
                    )
                entry = pop(heap)
                callback = entry[2]
                entry[2] = None
                clock.advance_to(entry[0])
                callback()
                self._processed += 1
                executed += 1
            return executed
        finally:
            self._running = False
