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
CoherenceAgent` and answers ``check(agent, kind, target)`` at
enforcement time; pull and push additionally feed the agent's local
view (which is what triggers selective cache invalidation).
"""

from __future__ import annotations

from typing import Optional

from ..components.base import RpcFault, RpcTimeout
from ..components.cache import TtlCache
from .bus import BATCH_INVALIDATION_KIND, INVALIDATION_KIND, InvalidationBus
from .records import RevocationError, RevocationKind

#: A failed authority interaction: unreachable, faulting, or replying
#: with garbage (a compromised/misconfigured endpoint must degrade the
#: strategy, never crash the simulation).
_AUTHORITY_ERRORS = (RpcTimeout, RpcFault, RevocationError)


class PropagationStrategy:
    """Base strategy: no propagation at all (the TTL-only baseline).

    Relying parties never learn about revocations; correctness rests
    entirely on cache TTLs and authoritative-state changes at the
    PDP/PIP — exactly the seed behaviour E15 uses as its baseline.
    """

    name = "ttl-only"

    def attach(self, agent) -> None:  # pragma: no cover - trivial
        pass

    def check(self, agent, kind: RevocationKind, target: str) -> bool:
        return agent.is_revoked_locally(kind, target)


#: Alias that reads better at call sites building the E15 baseline.
TtlOnlyStrategy = PropagationStrategy


class PullStrategy(PropagationStrategy):
    """Periodic delta-CRL pull: bounded staleness, bounded message cost.

    Every ``interval`` simulated seconds the agent asks the authority
    for records newer than its epoch.  An unreachable authority is
    tolerated (the poll retries next round) — the dependability
    behaviour CRL distribution points are deployed for.
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
        self._schedule_next(agent)

    def _schedule_next(self, agent) -> None:
        agent.network.schedule(self.interval, lambda: self._poll(agent))

    def _poll(self, agent) -> None:
        if not agent.alive:
            return
        self.polls += 1
        try:
            agent.fetch_delta()
        except _AUTHORITY_ERRORS:
            self.failed_polls += 1
        self._schedule_next(agent)


class OnlineStatusStrategy(PropagationStrategy):
    """OCSP-style per-check status query: freshest answer, dearest cost.

    Args:
        cache_ttl: optional response cache (an OCSP responder's
            ``nextUpdate`` analogue); 0 queries on every check.

    An unreachable authority means revoked: fail-safe denial, as at the
    PEP.
    """

    name = "online"

    def __init__(self, cache_ttl: float = 0.0) -> None:
        self.cache_ttl = cache_ttl
        self.status_checks = 0
        self.failed_checks = 0
        self._cache: Optional[TtlCache] = None

    def attach(self, agent) -> None:
        self._cache = TtlCache(
            ttl=self.cache_ttl, clock=lambda: agent.now, capacity=10_000
        )

    def check(self, agent, kind: RevocationKind, target: str) -> bool:
        if agent.is_revoked_locally(kind, target):
            return True
        key = (kind.value, target)
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        self.status_checks += 1
        try:
            revoked = agent.query_status(kind, target)
        except _AUTHORITY_ERRORS:
            self.failed_checks += 1
            return True
        if self._cache is not None:
            self._cache.put(key, revoked)
        return revoked


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
