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

    __slots__ = ("now",)

    def __init__(self) -> None:
        #: Current simulated time in seconds.  A plain attribute, read
        #: on every hop of a decision; only :meth:`advance_to` writes it.
        self.now = 0.0

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ValueError: if ``when`` lies in the past or is not a number;
                simulated time is monotonic by construction.
        """
        if not when >= self.now:
            raise ValueError(
                f"cannot move clock backwards: now={self.now}, requested={when}"
            )
        self.now = when

    def __repr__(self) -> str:
        return f"SimClock(t={self.now:.6f})"
