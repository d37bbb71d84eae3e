"""Policy Enforcement Point: the guard in front of every resource.

"The PEP component ... creates a barrier around the resource it protects
and mediates all accesses to this resource.  It conforms to decisions
that are made by other components" (paper §2.2).  The implementation
covers the architectural duties Section 3 assigns to enforcement points:

* querying a PDP (pull model) with optional WS-Security mutual
  authentication, verifying that responses really come from the trusted
  decision point.  There are two entry points and one transport:
  :meth:`PolicyEnforcementPoint.authorize` sends one single-query
  envelope at once and waits (a top-level wait: it runs the event
  loop until the answer lands, so no handler or timer may call it), and
  :meth:`~PolicyEnforcementPoint.submit` feeds the coalescing queue.
  Both put their envelopes on the PEP's one
  :class:`~repro.components.fabric.BatchWireCore` — one in-flight map,
  one timeout failover, one reply check — and both land in one
  completion (cache admit, obligations, counters, trace);
* **decision caching** with TTL (paper §3.2 communication performance;
  experiment E6 measures both the savings and the staleness risk);
* **obligation enforcement**: registered handlers run before access is
  granted; an obligation the PEP does not understand forces Deny
  (XACML §7.14);
* **fail-safe enforcement**: if no PDP answers, or its reply does not
  verify or decode, the PEP denies (experiments E10/E11); there is no
  switch to fail open;
* a hook for capability-based (push-model) validation, used by
  :mod:`repro.capability`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..saml.xacml_profile import XacmlAuthzDecisionQuery, XacmlAuthzDecisionStatement
from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.context import (
    Decision,
    Obligation,
    RequestContext,
    Status,
    StatusCode,
)
from .base import Component, ComponentIdentity
from .cache import DecisionCache
from .channel import DecisionChannel
from .fabric import (
    BatchWireCore,
    CoalescingDecisionQueue,
    DecisionDispatcher,
    Slot,
    WireJob,
    no_replica,
)
from .pdp import QUERY_ACTION

#: Obligation handler: receives the obligation and the request, performs
#: the action, returns True when fulfilled.
ObligationHandler = Callable[[Obligation, RequestContext], bool]

#: Revocation guard, ``guard(request, then)``: consulted before any
#: decision (cached or fresh) is served; ``then`` gets a denial reason
#: when the request hits revoked state, None to let enforcement proceed
#: — at once, or when an online status check lands.  Installed by
#: :meth:`repro.revocation.coherence.CoherenceAgent.protect_pep`.
RevocationGuard = Callable[[RequestContext, Callable[[Optional[str]], None]], None]


@dataclass
class PepConfig:
    #: Decision cache TTL in simulated seconds; 0 disables the cache.
    decision_cache_ttl: float = 0.0
    #: Sign queries / verify response signatures (mutual authentication).
    secure_channel: bool = False
    #: Reply deadline towards the PDP, per replica tried (> 0).
    pdp_timeout: float = 2.0

    def __post_init__(self) -> None:
        if not self.pdp_timeout > 0:
            raise ValueError(f"pdp_timeout must be > 0, got {self.pdp_timeout}")


def _query_body(items: list[Slot], sender: Component) -> tuple[str, str, str]:
    """The pull profile's envelope body: one single query (paper §3.2)."""
    (item,) = items
    query = XacmlAuthzDecisionQuery(
        request=item.request,
        issuer=sender.name,
        issue_instant=sender.now,
        query_id=sender.network.mint("xacmlq"),
    )
    return query.query_id, QUERY_ACTION, query.to_xml()


def _open_statement(
    channel: DecisionChannel, reply: Message, replica: str, query_id: str, count: int
) -> Sequence[XacmlAuthzDecisionStatement]:
    """The pull profile's reply: one statement answering ``query_id``."""
    return (channel.open_statement_reply(reply, replica, query_id),)


@dataclass(frozen=True)
class EnforcementResult:
    """What enforcement concluded, and why."""

    decision: Decision
    source: str  # "pdp" | "cache" | "capability" | "fail-safe" | "obligation"
    obligations: tuple[Obligation, ...] = ()
    status: Optional[Status] = None
    detail: str = ""

    @property
    def granted(self) -> bool:
        return self.decision is Decision.PERMIT


class PolicyEnforcementPoint(Component):
    """Network-attached PEP guarding one or more resources."""

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        pdp_address: Optional[str] = None,
        config: Optional[PepConfig] = None,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.config = config if config is not None else PepConfig()
        #: How every decision exchange of this PEP (pull or coalesced)
        #: is sealed and opened.
        self.channel = DecisionChannel(
            self, secure=self.config.secure_channel, role="pep"
        )
        #: The replica ring both entry points reach their PDP through;
        #: ``pdp_address`` is a ring of one.  Replace it directly (the
        #: next ``authorize`` uses it) or via :meth:`enable_batching`;
        #: None (no PDP) fails every query safe.
        self.dispatcher: Optional[DecisionDispatcher] = (
            DecisionDispatcher([pdp_address]) if pdp_address is not None else None
        )
        #: The one transport of both entry points: single queries from
        #: :meth:`authorize`, batches from the coalescing queue.
        self._wire = BatchWireCore(self)
        #: How :meth:`authorize`'s queries travel (see :meth:`_pull_job`).
        self._pull: Optional[WireJob] = None
        #: Scope prefix of every slot key this PEP mints: its identity.
        #: Keeps entries from different PEPs distinct even inside shared
        #: (gateway-tier) bookkeeping.
        self._scope = (domain, name)
        #: Client-side coalescing queue (see :meth:`enable_batching`).
        self.coalescer: Optional[CoalescingDecisionQueue] = None
        self.decision_cache = DecisionCache(
            ttl=self.config.decision_cache_ttl, clock=lambda: self.now
        )
        self._obligation_handlers: dict[str, ObligationHandler] = {}
        #: Optional revocation coherence hook (see repro.revocation).
        self.revocation_guard: Optional[RevocationGuard] = None
        self.enforcements = 0
        self.grants = 0
        self.denials = 0
        self.fail_safe_denials = 0
        self.obligation_failures = 0
        self.revocation_denials = 0
        self.invalidations_received = 0

    # -- obligations --------------------------------------------------------------

    def register_obligation_handler(
        self, obligation_id: str, handler: ObligationHandler
    ) -> None:
        self._obligation_handlers[obligation_id] = handler

    def _fulfil_obligations(
        self, obligations: tuple[Obligation, ...], request: RequestContext
    ) -> Optional[str]:
        """Run handlers; returns an error string when enforcement must deny."""
        for obligation in obligations:
            handler = self._obligation_handlers.get(obligation.obligation_id)
            if handler is None:
                return (
                    f"obligation {obligation.obligation_id!r} not understood"
                )
            if not handler(obligation, request):
                return f"obligation {obligation.obligation_id!r} failed"
        return None

    # -- the decision query (pull model) ----------------------------------------------

    def enable_batching(
        self,
        max_batch: int = 16,
        max_delay: float = 0.002,
        dispatcher: Optional[DecisionDispatcher] = None,
        gateway=None,
    ) -> CoalescingDecisionQueue:
        """Attach the coalescing queue (and a dispatcher or gateway).

        Afterwards :meth:`submit` feeds the queue, whose batches share
        the PEP's wire core with :meth:`authorize`'s queries.  A given
        dispatcher replaces the PEP's own for both entry points.  With a
        :class:`~repro.components.fabric.DomainDecisionGateway` the
        queue's flushes hand off to the domain's shared aggregation
        point instead of sending per-PEP envelopes; the gateway owns
        replica dispatch for that traffic.
        """
        if dispatcher is not None:
            self.dispatcher = dispatcher
        self.coalescer = CoalescingDecisionQueue(
            self, max_batch=max_batch, max_delay=max_delay, gateway=gateway
        )
        return self.coalescer

    def submit(self, request: RequestContext, callback) -> bool:
        """Asynchronous enforcement through the coalescing queue.

        The callback receives this request's :class:`EnforcementResult`
        once the (possibly batched, possibly deduplicated) decision
        lands.  Returns True exactly when the callback has already run.
        Requires :meth:`enable_batching` first.
        """
        if self.coalescer is None:
            raise ValueError(
                f"PEP {self.name} has no coalescing queue; "
                "call enable_batching() first"
            )
        return self.coalescer.submit(request, callback)

    # -- enforcement ----------------------------------------------------------------

    def _pre_decision(
        self,
        request: RequestContext,
        cache_key: Optional[tuple],
        then: Callable[[Optional[EnforcementResult]], None],
    ) -> None:
        """Guard + cache front of every path: ``then`` gets the result
        they settle, or None for 'ask a PDP'.  ``cache_key`` may be None
        while the cache is off."""

        def guarded(reason: Optional[str]) -> None:
            if reason is not None:
                self.revocation_denials += 1
                self.denials += 1
                then(EnforcementResult(decision=Decision.DENY, source="revocation", detail=reason))
                return
            cached = self.decision_cache.get(cache_key)
            then(None if cached is None else self._settle(request, cached, source="cache"))

        if self.revocation_guard is None:
            guarded(None)
        else:
            self.revocation_guard(request, guarded)

    def _fail_safe_result(self, exc: Exception) -> EnforcementResult:
        self.fail_safe_denials += 1
        self.denials += 1
        return EnforcementResult(
            decision=Decision.DENY,
            source="fail-safe",
            status=Status(code=StatusCode.PROCESSING_ERROR, message=str(exc)),
            detail=f"fail-safe deny: {exc}",
        )

    def authorize(self, request: RequestContext) -> EnforcementResult:
        """Full pull-model enforcement of one access request.

        The guard and the decision cache answer first; otherwise one
        single query leaves on the PEP's wire core as soon as the guard
        lets it, and the event loop runs until its slot settles —
        answered, refused or failed safe once every replica the
        dispatcher offers timed out.  The wait is a top-level one: the
        loop refuses to nest, so nothing that runs as an event may call
        ``authorize``.
        """
        self.enforcements += 1
        tracer = self.network.tracer
        trace = tracer.begin_decision(self, request) if tracer.enabled else None
        if trace is not None:
            # No queue/batch/demux phases: the decision is a single span
            # covering the whole call.
            trace.set("sync", True)
            trace.set("path", "authorize")
        # Without a cache nothing reads the key: the cache's get and
        # admit return at once when it is off.
        cache_key = request.cache_key() if self.decision_cache.enabled else None
        answer: list[EnforcementResult] = []

        def proceed(immediate: Optional[EnforcementResult]) -> None:
            if immediate is not None:
                self._finish(trace, immediate)
                answer.append(immediate)
                return
            slot = Slot(
                request, (self._scope, cache_key), self.name, [answer.append], trace=trace
            )
            self._wire.send([slot], self._pull_job())

        self._pre_decision(request, cache_key, proceed)
        self.network.loop.run_until(answer.__len__, math.inf)  # until answered
        return answer[0]

    def _pull_job(self) -> WireJob:
        """How ``authorize``'s query travels: one job per PEP, rebuilt
        only when the dispatcher, the deadline or the channel the PEP
        holds now is not the one it was built from."""
        job, dispatcher = self._pull, self.dispatcher
        if (
            job is None
            or job.dispatcher is not dispatcher
            or job.timeout != self.config.pdp_timeout
            or job.channel is not self.channel
        ):
            job = self._pull = WireJob(
                select=dispatcher.select if dispatcher is not None else no_replica,
                deliver=self._deliver_pull,
                fail=self._fail_pull,
                timeout=self.config.pdp_timeout,
                channel=self.channel,
                encode=_query_body,
                open=_open_statement,
                dispatcher=dispatcher,
            )
        return job

    # One slot per pull envelope.

    def _deliver_pull(self, slots: list[Slot], answers: Sequence) -> None:
        self._complete(slots[0], answers[0])

    def _fail_pull(self, slots: list[Slot], exc: Exception) -> None:
        self._complete(slots[0], error=exc)

    def _complete(
        self,
        slot: Slot,
        statement: Optional[XacmlAuthzDecisionStatement] = None,
        error: Optional[Exception] = None,
    ) -> None:
        """The one completion of a PDP exchange, for either entry point.

        A statement is admitted to the decision cache (under the slot
        key's bare request identity) and enforced once per waiter; an
        error — a timeout past the last replica, a fault, a reply that
        does not verify or decode — is a fail-safe denial per waiter.
        The slot's sampled trace is finished last.
        """
        if error is None:
            self.decision_cache.admit(slot.key[1], statement)
        for waiter in slot.waiters:  # never empty: a slot opens with one
            result = (
                self._settle(slot.request, statement)
                if error is None
                else self._fail_safe_result(error)
            )
            waiter(result)
        self._finish(slot.trace, result, error)

    def _finish(
        self,
        trace,
        result: EnforcementResult,
        error: Optional[Exception] = None,
    ) -> None:
        """Close a sampled decision trace on the result enforced."""
        if trace is not None:
            self.network.tracer.finish_decision(
                trace,
                self,
                granted=result.granted,
                decision=str(result.decision),
                source=result.source,
                error="" if error is None else type(error).__name__,
            )

    def _settle(
        self,
        request: RequestContext,
        statement: XacmlAuthzDecisionStatement,
        source: str = "pdp",
    ) -> EnforcementResult:
        """Enforce one decision statement, fresh or cached, for one waiter."""
        decision = statement.response.decision
        obligations = tuple(statement.response.result.obligations)
        if decision is Decision.PERMIT:
            error = self._fulfil_obligations(obligations, request)
            if error is not None:
                self.obligation_failures += 1
                self.denials += 1
                return EnforcementResult(
                    decision=Decision.DENY,
                    source="obligation",
                    obligations=obligations,
                    detail=error,
                )
            self.grants += 1
            return EnforcementResult(
                decision=Decision.PERMIT, source=source, obligations=obligations
            )
        # Deny-side obligations still run (e.g. audit-on-deny), but cannot
        # rescue the decision.
        if decision is Decision.DENY:
            self._fulfil_obligations(obligations, request)
        self.denials += 1
        return EnforcementResult(
            decision=Decision.DENY if decision is Decision.DENY else decision,
            source=source,
            obligations=obligations,
        )

    def authorize_simple(
        self, subject_id: str, resource_id: str, action_id: str
    ) -> EnforcementResult:
        return self.authorize(
            RequestContext.simple(subject_id, resource_id, action_id)
        )

    # -- revocation push (paper §3.2: caching vs revocation flexibility) ---------

    def subscribe_to_policy_changes(self, pap_address: str) -> None:
        """Subscribe to PAP change notifications; invalidate cache on each.

        This is the mitigation beyond TTLs for the staleness problem the
        paper describes: revocations reach cached decisions immediately at
        the cost of one notification message per change per PEP
        (experiment E6's 'TTL + invalidation push' row).
        """
        self.on("pap.changed", self._handle_policy_changed)
        self.call(pap_address, "pap.subscribe", "<Subscribe/>")

    def _handle_policy_changed(self, message) -> None:
        self.invalidations_received += 1
        self.decision_cache.invalidate_all()
        return None
