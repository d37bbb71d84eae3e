"""Dependability: PDP replication, heartbeat failover and quorum voting.

This module delivers the paper's titular adjective.  The paper requires
the authorisation infrastructure to be protected and available like the
resources it guards (Section 3.2, "Security of Access Control Systems";
the decision point is a single point of failure in the pull model of
Fig. 3).  Three mechanisms, composable per deployment:

* **replication** — a domain runs R identical PDP replicas behind one
  logical decision endpoint (:class:`PdpCluster`);
* **heartbeat failover** — a :class:`HeartbeatMonitor` pings replicas in
  turn, a round a period; the PEPs' :class:`~repro.components.fabric.
  DecisionDispatcher` routes under a :class:`~repro.components.fabric.
  HealthyFirstRouting` fed by it, so every query goes to the first
  replica not suspected, and a replica that crashed before the monitor
  noticed costs one ``pdp_timeout`` before the dispatcher fails over.
  A monitor that is itself down suspects nobody;
* **quorum voting** — a :class:`QuorumClient` asks replicas in turn
  until q have voted and takes the majority decision, masking not just
  crashes but a *corrupted replica returning wrong decisions*
  (deny-biased on ties and disagreement).

Neither waits inside an event: each asks one replica at a time
(``Component.in_turn``) and continues from the reply's event.

Experiment E11 measures availability and latency against replica count
and injected crash faults.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ..components.base import Component, RpcFault
from ..components.channel import DecisionChannel
from ..components.pdp import PolicyDecisionPoint, QUERY_ACTION
from ..domain.domain import AdministrativeDomain
from ..saml.xacml_profile import XacmlAuthzDecisionQuery
from ..simnet.message import Message
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
    ) -> None:
        if replicas < 1:
            raise ValueError(f"cluster needs >= 1 replica, got {replicas}")
        self.domain = domain
        self.replicas: list[PolicyDecisionPoint] = []
        for index in range(replicas):
            replica = domain.create_pdp(suffix=f"-r{index}")
            self.replicas.append(replica)

    @property
    def addresses(self) -> list[str]:
        return [replica.name for replica in self.replicas]


#: Reply deadline of one heartbeat ping (simulated seconds).
PROBE_TIMEOUT = 0.2
#: Reply deadline of one quorum vote (simulated seconds).
REPLY_TIMEOUT = 1.0


class HeartbeatMonitor(Component):
    """Tracks replica liveness through periodic pings.

    A replica is *suspected* after ``miss_threshold`` consecutive missed
    heartbeats (a ping unanswered within :data:`PROBE_TIMEOUT`) — the classic trade-off between detection latency
    (period × threshold) and false suspicion, which E11 sweeps.  A round
    pings the replicas in turn, and the next is due a period after it
    ends.  A monitor that is down judges nobody: its rounds run nothing
    until it recovers (see :meth:`Component.every`).
    """

    def __init__(
        self,
        name: str,
        network: Network,
        targets: list[str],
        period: float = 0.5,
        miss_threshold: int = 2,
    ) -> None:
        super().__init__(name, network)
        self.targets = list(targets)
        self.period = period
        self.miss_threshold = miss_threshold
        self._misses: dict[str, int] = {target: 0 for target in targets}
        self._suspected: set[str] = set()
        self.heartbeats_sent = 0
        self.suspicions_raised = 0
        self.suspicions_cleared = 0
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.every(self.period, self._beat)

    def is_suspected(self, target: str) -> bool:
        return target in self._suspected

    def _beat(self, end: Callable[[], None]) -> None:
        self.in_turn(self.targets, self._ping, end)

    def _ping(self, target: str, settled: Callable[[], None]) -> None:
        self.heartbeats_sent += 1

        def heard(_: Message) -> None:
            self._misses[target] = 0
            if target in self._suspected:
                self._suspected.discard(target)
                self.suspicions_cleared += 1
            settled()

        def missed(_: Exception) -> None:
            self._misses[target] += 1
            if self._misses[target] >= self.miss_threshold and target not in self._suspected:
                self._suspected.add(target)
                self.suspicions_raised += 1
            settled()

        self.ask(target, "ping", "<Ping/>", heard, missed, timeout=PROBE_TIMEOUT)


@dataclass
class QuorumOutcome:
    decision: Decision
    votes: dict[str, int]
    replicas_asked: int
    replies: int
    disagreement: bool


class QuorumClient(Component):
    """Queries multiple replicas and takes the majority decision.

    Deny-biased: ties, insufficient replies or any disagreement that
    leaves Permit without a strict majority resolve to Deny — a corrupted
    minority can cause denial of service but never unauthorised access.
    A reply that does not decode, or that answers another query, or
    that misses :data:`REPLY_TIMEOUT`, counts as no reply.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        replica_addresses: list[str],
        quorum: int,
    ) -> None:
        super().__init__(name, network)
        if quorum < 1 or quorum > len(replica_addresses):
            raise ValueError(
                f"quorum {quorum} invalid for {len(replica_addresses)} replicas"
            )
        self.replica_addresses = list(replica_addresses)
        self.quorum = quorum
        self.channel = DecisionChannel(self, role="quorum")
        self.disagreements_observed = 0

    def evaluate(
        self, request: RequestContext, then: Callable[[QuorumOutcome], None]
    ) -> None:
        """Ask the replicas in turn until ``quorum`` have voted (a
        timeout, a fault or an unreadable reply is no vote); ``then``
        gets the outcome."""
        votes: Counter[str] = Counter()
        asked = 0

        def vote(address: str, settled: Callable[[], None]) -> None:
            nonlocal asked
            if votes.total() >= self.quorum:
                settled()  # enough votes: the rest are not asked
                return
            asked += 1
            query = XacmlAuthzDecisionQuery(
                request=request,
                issuer=self.name,
                issue_instant=self.now,
                query_id=self.network.mint("xacmlq"),
            )

            def answered(reply: Message) -> None:
                try:
                    statement = self.channel.open_statement_reply(
                        reply, address, query.query_id
                    )
                except RpcFault:
                    pass
                else:
                    votes[statement.response.decision.value] += 1
                settled()

            self.ask(
                address,
                QUERY_ACTION,
                query.to_xml(),
                answered,
                lambda _: settled(),
                timeout=REPLY_TIMEOUT,
            )

        def count() -> None:
            replies = votes.total()
            disagreement = len(votes) > 1
            if disagreement:
                self.disagreements_observed += 1
            decision = Decision.DENY
            # Permit needs a strict majority of the replies received.
            if replies >= self.quorum and votes[Decision.PERMIT.value] * 2 > replies:
                decision = Decision.PERMIT
            then(
                QuorumOutcome(
                    decision=decision,
                    votes=dict(votes),
                    replicas_asked=asked,
                    replies=replies,
                    disagreement=disagreement,
                )
            )

        self.in_turn(self.replica_addresses, vote, count)
