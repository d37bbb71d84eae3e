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


@dataclass(frozen=True)
class EventHandle:
    """Opaque handle returned by :meth:`EventLoop.schedule`, used to cancel."""

    seq: int
    when: float


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


@dataclass
class _Entry:
    callback: Callable[[], None]
    cancelled: bool = False
    label: str = ""


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
        #: ``(when, seq, entry)``: the heap orders by the two leading
        #: numbers, compared in C; ``seq`` is unique, so an entry itself
        #: is never compared.  Cancelled entries stay until they surface.
        self._heap: list[tuple[float, int, _Entry]] = []
        self._seq = itertools.count()
        self._entries: dict[int, _Entry] = {}
        self._processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._entries.values() if not e.cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay})")
        when = self.clock.now + delay
        return self.schedule_at(when, callback, label)

    def schedule_at(
        self, when: float, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule at {when}, clock already at {self.clock.now}"
            )
        seq = next(self._seq)
        entry = _Entry(callback=callback, label=label)
        heapq.heappush(self._heap, (when, seq, entry))
        self._entries[seq] = entry
        return EventHandle(seq=seq, when=when)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event.  Returns True if it had not yet fired."""
        entry = self._entries.get(handle.seq)
        if entry is None or entry.cancelled:
            return False
        entry.cancelled = True
        return True

    def step(self) -> bool:
        """Execute the next event, advancing the clock.

        Returns:
            True if an event was executed, False if the queue was empty.
        """
        while self._heap:
            when, seq, entry = heapq.heappop(self._heap)
            self._entries.pop(seq, None)
            if entry.cancelled:
                continue
            self.clock.advance_to(when)
            entry.callback()
            self._processed += 1
            return True
        return False

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout_at: float,
        max_events: int = 1_000_000,
    ) -> bool:
        """Process events until ``predicate`` holds or ``timeout_at`` passes.

        This is the engine behind synchronous RPC over the simulated
        network: the caller sends a request, then drives the loop until
        the reply callback flips a flag.  Re-entrant by design — a handler
        that itself issues a nested RPC simply drives the same loop
        deeper; determinism is preserved because there is only one event
        queue and one clock.

        Returns:
            True if the predicate became true, False on timeout (the
            clock is then positioned at ``timeout_at``).
        """
        executed = 0
        while not predicate():
            if executed >= max_events:
                raise RuntimeError(
                    f"run_until exceeded max_events={max_events}"
                )
            while self._heap and self._heap[0][2].cancelled:
                self._entries.pop(heapq.heappop(self._heap)[1], None)
            if not self._heap or self._heap[0][0] > timeout_at:
                if self.clock.now < timeout_at:
                    self.clock.advance_to(timeout_at)
                return predicate()
            self.step()
            executed += 1
        return True

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Run events until the queue drains or ``until`` is reached.

        Args:
            until: stop once the next event would fire after this time; the
                clock is advanced to ``until`` on exit so timers line up.
            max_events: safety valve against runaway scheduling loops.

        Returns:
            Number of events executed by this call.
        """
        executed = 0
        while self._heap and executed < max_events:
            when, seq, head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                self._entries.pop(seq, None)
                continue
            if until is not None and when > until:
                break
            self.step()
            executed += 1
        if executed >= max_events:
            # A runaway loop is one that still has events due: exactly
            # ``max_events`` that drain the queue are a clean finish.
            while self._heap and self._heap[0][2].cancelled:
                self._entries.pop(heapq.heappop(self._heap)[1], None)
            if self._heap and (until is None or self._heap[0][0] <= until):
                raise RuntimeError(
                    f"event loop exceeded max_events={max_events}; "
                    "likely a self-rescheduling cycle"
                )
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
        return executed
