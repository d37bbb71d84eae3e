"""Dependability: PDP replication, heartbeat failover and quorum voting.

This module delivers the paper's titular adjective.  The paper requires
the authorisation infrastructure to be protected and available like the
resources it guards (Section 3.2, "Security of Access Control Systems";
the decision point is a single point of failure in the pull model of
Fig. 3).  Three mechanisms, composable per deployment:

* **replication** — a domain runs R identical PDP replicas behind one
  logical decision endpoint (:class:`PdpCluster`);
* **heartbeat failover** — a :class:`HeartbeatMonitor` pings replicas on
  a period; the PEPs' :class:`~repro.components.fabric.
  DecisionDispatcher` routes under a :class:`~repro.components.fabric.
  HealthyFirstRouting` fed by it, so every query goes to the first
  replica not suspected, and a replica that crashed before the monitor
  noticed costs one ``pdp_timeout`` before the dispatcher fails over;
* **quorum voting** — a :class:`QuorumClient` queries q replicas and
  takes the majority decision, masking not just crashes but a *corrupted
  replica returning wrong decisions* (deny-biased on ties and
  disagreement).

Experiment E11 measures availability and latency against replica count
and injected crash faults.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from ..components.base import Component, RpcFault, RpcTimeout
from ..components.channel import DecisionChannel
from ..components.pdp import PdpConfig, PolicyDecisionPoint, QUERY_ACTION
from ..domain.domain import AdministrativeDomain
from ..saml.xacml_profile import XacmlAuthzDecisionQuery
from ..simnet.network import Network
from ..xacml.context import Decision, RequestContext


class PdpCluster:
    """R identical PDP replicas for one domain.

    All replicas share the domain's PAP and PIP, so they converge on the
    same policies through the normal retrieval path; there is no
    replica-to-replica protocol to corrupt.
    """

    def __init__(
        self,
        domain: AdministrativeDomain,
        replicas: int,
        config: Optional[PdpConfig] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"cluster needs >= 1 replica, got {replicas}")
        self.domain = domain
        self.replicas: list[PolicyDecisionPoint] = []
        for index in range(replicas):
            replica = domain.create_pdp(config=config, suffix=f"-r{index}")
            self.replicas.append(replica)

    @property
    def addresses(self) -> list[str]:
        return [replica.name for replica in self.replicas]

    def crash_replica(self, index: int) -> None:
        self.replicas[index].crash()

    def recover_replica(self, index: int) -> None:
        self.replicas[index].recover()

    def alive_count(self) -> int:
        return sum(1 for replica in self.replicas if replica.alive)


class HeartbeatMonitor(Component):
    """Tracks replica liveness through periodic pings.

    A replica is *suspected* after ``miss_threshold`` consecutive missed
    heartbeats — the classic trade-off between detection latency
    (period × threshold) and false suspicion, which E11 sweeps.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        targets: list[str],
        period: float = 0.5,
        probe_timeout: float = 0.2,
        miss_threshold: int = 2,
    ) -> None:
        super().__init__(name, network)
        self.targets = list(targets)
        self.period = period
        self.probe_timeout = probe_timeout
        self.miss_threshold = miss_threshold
        self._misses: dict[str, int] = {target: 0 for target in targets}
        self._suspected: set[str] = set()
        self.heartbeats_sent = 0
        self.suspicions_raised = 0
        self.suspicions_cleared = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def alive_targets(self) -> list[str]:
        return [t for t in self.targets if t not in self._suspected]

    def is_suspected(self, target: str) -> bool:
        return target in self._suspected

    def _schedule_next(self) -> None:
        if not self._running:
            return
        self.network.loop.schedule(self.period, self._beat, label="heartbeat")

    def _beat(self) -> None:
        if not self._running:
            return
        for target in self.targets:
            self.heartbeats_sent += 1
            try:
                self.call(target, "ping", "<Ping/>", timeout=self.probe_timeout)
            except (RpcTimeout, RpcFault):
                self._misses[target] += 1
                if (
                    self._misses[target] >= self.miss_threshold
                    and target not in self._suspected
                ):
                    self._suspected.add(target)
                    self.suspicions_raised += 1
                continue
            self._misses[target] = 0
            if target in self._suspected:
                self._suspected.discard(target)
                self.suspicions_cleared += 1
        self._schedule_next()


@dataclass
class QuorumOutcome:
    decision: Decision
    votes: dict[str, int]
    replicas_asked: int
    replies: int
    disagreement: bool

    @property
    def unanimous(self) -> bool:
        return len([v for v in self.votes.values() if v > 0]) == 1


class QuorumClient(Component):
    """Queries multiple replicas and takes the majority decision.

    Deny-biased: ties, insufficient replies or any disagreement that
    leaves Permit without a strict majority resolve to Deny — a corrupted
    minority can cause denial of service but never unauthorised access.
    A reply that does not decode, or that answers another query, counts
    as no reply.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        replica_addresses: list[str],
        quorum: int,
        reply_timeout: float = 1.0,
    ) -> None:
        super().__init__(name, network)
        if quorum < 1 or quorum > len(replica_addresses):
            raise ValueError(
                f"quorum {quorum} invalid for {len(replica_addresses)} replicas"
            )
        self.replica_addresses = list(replica_addresses)
        self.quorum = quorum
        self.reply_timeout = reply_timeout
        self.channel = DecisionChannel(self, role="quorum")
        self.disagreements_observed = 0

    def evaluate(self, request: RequestContext) -> QuorumOutcome:
        votes: Counter[str] = Counter()
        replies = 0
        asked = 0
        for address in self.replica_addresses:
            if replies >= self.quorum:
                break
            asked += 1
            query = XacmlAuthzDecisionQuery(
                request=request, issuer=self.name, issue_instant=self.now
            )
            try:
                reply = self.call(
                    address, QUERY_ACTION, query.to_xml(), timeout=self.reply_timeout
                )
                statement = self.channel.open_statement_reply(
                    reply, address, query.query_id
                )
            except (RpcTimeout, RpcFault):
                continue
            votes[statement.response.decision.value] += 1
            replies += 1
        disagreement = len([v for v in votes.values() if v > 0]) > 1
        if disagreement:
            self.disagreements_observed += 1
        decision = Decision.DENY
        if replies >= self.quorum:
            permits = votes.get(Decision.PERMIT.value, 0)
            if permits * 2 > replies:  # strict majority of received replies
                decision = Decision.PERMIT
        return QuorumOutcome(
            decision=decision,
            votes=dict(votes),
            replicas_asked=asked,
            replies=replies,
            disagreement=disagreement,
        )
