"""Propagation strategies: how revocation reaches relying parties.

Three first-class strategies cover the classic design space the paper's
communication-performance analysis (§3.2) opens, plus the do-nothing
baseline experiments compare against:

==============  ======================  ==============================
strategy        staleness window        message cost
==============  ======================  ==============================
ttl-only        cache TTL               none
pull (CRL)      poll interval           2 msgs / poll / relying party
online (OCSP)   ~0 (one RTT)            2 msgs / *check*
push (bus)      propagation latency     1 msg / revocation / subscriber
==============  ======================  ==============================

Each strategy attaches to a :class:`~repro.revocation.coherence.
CoherenceAgent` and answers ``check(agent, kind, target, then)`` at
enforcement time — at once from the agent's local view, or, online,
once the authority's answer lands; pull and push additionally feed
that view (which is what triggers selective cache invalidation).
"""

from __future__ import annotations

from typing import Callable

from .bus import BATCH_INVALIDATION_KIND, INVALIDATION_KIND, InvalidationBus
from .records import RevocationKind


class PropagationStrategy:
    """Base strategy: no propagation at all (the TTL-only baseline).

    Relying parties never learn about revocations; correctness rests
    entirely on cache TTLs and authoritative-state changes at the
    PDP/PIP — exactly the seed behaviour E15 uses as its baseline.
    """

    name = "ttl-only"

    def attach(self, agent) -> None:  # pragma: no cover - trivial
        pass

    def check(
        self, agent, kind: RevocationKind, target: str, then: Callable[[bool], None]
    ) -> None:
        then(agent.is_revoked_locally(kind, target))


#: Alias that reads better at call sites building the E15 baseline.
TtlOnlyStrategy = PropagationStrategy


class PullStrategy(PropagationStrategy):
    """Periodic delta-CRL pull: bounded staleness, bounded message cost.

    Every ``interval`` simulated seconds after the last poll settled
    the agent asks the authority for records newer than its epoch.  An
    unreachable authority is tolerated (the poll retries next round) —
    the dependability behaviour CRL distribution points are deployed
    for — and so is a crash of the agent itself: polls resume within
    an interval of its recovery (see ``Component.every``).
    """

    name = "pull"

    def __init__(self, interval: float = 30.0) -> None:
        if interval <= 0:
            raise ValueError(f"poll interval must be positive, got {interval}")
        self.interval = interval
        self.polls = 0
        self.failed_polls = 0
        self._agent = None

    def attach(self, agent) -> None:
        # Per-instance state (counters, the poll chain) serves one agent.
        if self._agent is not None and self._agent is not agent:
            raise ValueError(
                "PullStrategy instance already attached to "
                f"{self._agent.name!r}; build one per agent"
            )
        self._agent = agent
        agent.every(self.interval, self._poll)

    def _poll(self, end: Callable[[], None]) -> None:
        self.polls += 1

        def failed(_: Exception) -> None:
            self.failed_polls += 1
            end()

        self._agent.fetch_delta(lambda _: end(), failed)


class OnlineStatusStrategy(PropagationStrategy):
    """OCSP-style per-check status query: freshest answer, dearest cost.

    Every check not already settled by the agent's local view asks the
    authority.  An unreachable authority means revoked: fail-safe
    denial, as at the PEP.
    """

    name = "online"

    def __init__(self) -> None:
        self.status_checks = 0
        self.failed_checks = 0

    def check(
        self, agent, kind: RevocationKind, target: str, then: Callable[[bool], None]
    ) -> None:
        if agent.is_revoked_locally(kind, target):
            then(True)
            return
        self.status_checks += 1

        def failed(_: Exception) -> None:
            self.failed_checks += 1
            then(True)

        agent.query_status(kind, target, then, failed)


class PushStrategy(PropagationStrategy):
    """Bus-subscribed push invalidation: fastest propagation.

    The agent subscribes to the invalidation bus; every published record
    arrives as its own message and is applied on delivery.  Staleness is
    one network propagation delay; cost is one message per revocation
    per subscriber — and a *lost* push is never retransmitted, which is
    why deployments pair push with a slow pull safety net.
    """

    name = "push"

    def __init__(self, bus: InvalidationBus) -> None:
        self.bus = bus

    def attach(self, agent) -> None:
        self.bus.subscribe(agent.name)
        agent.on(INVALIDATION_KIND, agent.handle_invalidation)
        agent.on(BATCH_INVALIDATION_KIND, agent.handle_batch_invalidation)


class HybridStrategy(PropagationStrategy):
    """Push for speed, slow periodic pull as loss recovery.

    Closes the documented push gap (a lost push is never retransmitted):
    the agent subscribes to the invalidation bus *and* runs a slow
    delta-CRL poll.  Steady-state staleness is the push propagation
    delay; worst-case staleness after a lost/partitioned push is bounded
    by ``pull_interval`` instead of forever.  Message cost is the push
    cost plus ``2/pull_interval`` messages per second per relying party
    — the safety net is cheap precisely because it may be slow.
    """

    name = "hybrid"

    def __init__(
        self, bus: InvalidationBus, pull_interval: float = 60.0
    ) -> None:
        self.push = PushStrategy(bus)
        self.pull = PullStrategy(interval=pull_interval)

    @property
    def bus(self) -> InvalidationBus:
        return self.push.bus

    @property
    def pull_interval(self) -> float:
        return self.pull.interval

    @property
    def polls(self) -> int:
        return self.pull.polls

    @property
    def failed_polls(self) -> int:
        return self.pull.failed_polls

    def attach(self, agent) -> None:
        self.push.attach(agent)
        self.pull.attach(agent)
