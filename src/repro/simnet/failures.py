"""Failure injection for dependability experiments.

The paper's titular promise is *dependable* access control; experiments
E10 and E11 stress PDP discovery and replication under faults injected by
this module: node crashes/restarts, network partitions and message loss,
all scheduled on the simulated clock from a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .network import Network


@dataclass
class FailureEvent:
    """A record of one injected fault, for experiment reporting."""

    at: float
    kind: str
    target: str
    detail: str = ""


class FailureInjector:
    """Schedules faults against a :class:`~repro.simnet.network.Network`.

    All faults are scheduled through the network's event loop so they
    interleave deterministically with application traffic.
    """

    def __init__(self, network: Network, seed: int = 0) -> None:
        self.network = network
        self.rng = random.Random(seed)
        self.log: list[FailureEvent] = []

    # -- crash faults -------------------------------------------------------

    def crash_at(self, address: str, at: float) -> None:
        """Crash the node at ``address`` at absolute simulated time ``at``."""

        def do_crash() -> None:
            self.network.get(address).crash()
            self.log.append(FailureEvent(self.network.now, "crash", address))

        self._schedule_at(at, do_crash)

    def recover_at(self, address: str, at: float) -> None:
        """Recover a crashed node at absolute simulated time ``at``."""

        def do_recover() -> None:
            self.network.get(address).recover()
            self.log.append(FailureEvent(self.network.now, "recover", address))

        self._schedule_at(at, do_recover)

    def crash_for(self, address: str, at: float, duration: float) -> None:
        """Crash then recover after ``duration`` seconds of downtime."""
        self.crash_at(address, at)
        self.recover_at(address, at + duration)

    # -- partition faults ---------------------------------------------------

    # -- random crash/recovery process ---------------------------------------

    def random_crash_process(
        self,
        addresses: list[str],
        horizon: float,
        mtbf: float,
        mttr: float,
        start: float = 0.0,
    ) -> int:
        """Generate an exponential crash/repair schedule over ``horizon``.

        Args:
            addresses: candidate victims, chosen uniformly per fault.
            horizon: stop injecting past this simulated time.
            mtbf: mean time between failures (exponential).
            mttr: mean time to repair (exponential).

        Returns:
            Number of crash events scheduled.
        """
        if not addresses:
            return 0
        t = start
        scheduled = 0
        while True:
            t += self.rng.expovariate(1.0 / mtbf)
            if t >= horizon:
                break
            victim = self.rng.choice(addresses)
            downtime = self.rng.expovariate(1.0 / mttr)
            self.crash_for(victim, t, downtime)
            scheduled += 1
        return scheduled

    def _schedule_at(self, at: float, callback) -> None:
        now = self.network.now
        if at < now:
            raise ValueError(f"cannot inject fault in the past (at={at}, now={now})")
        self.network.loop.schedule_at(at, callback)
