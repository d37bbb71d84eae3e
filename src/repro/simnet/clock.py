"""Simulated clock for the discrete-event network substrate.

All timing in the reproduction is *simulated*: latencies, capability
lifetimes, cache TTLs and heartbeat timeouts are measured against a
:class:`SimClock`, never against the wall clock.  This keeps every
experiment deterministic and lets benchmarks compress hours of simulated
collaboration into milliseconds of real time.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock.

    Time is a ``float`` number of simulated seconds since the start of the
    simulation.  Only the event loop (see :mod:`repro.simnet.events`) should
    advance the clock; everything else reads it.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ValueError: if ``when`` lies in the past; simulated time is
                monotonic by construction.
        """
        if when < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, requested={when}"
            )
        self._now = when

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.6f})"
