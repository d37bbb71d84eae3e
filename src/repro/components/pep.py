"""Policy Enforcement Point: the guard in front of every resource.

"The PEP component ... creates a barrier around the resource it protects
and mediates all accesses to this resource.  It conforms to decisions
that are made by other components" (paper §2.2).  The implementation
covers the architectural duties Section 3 assigns to enforcement points:

* querying a PDP (pull model) with optional WS-Security mutual
  authentication, verifying that responses really come from the trusted
  decision point;
* **decision caching** with TTL (paper §3.2 communication performance;
  experiment E6 measures both the savings and the staleness risk);
* **obligation enforcement**: registered handlers run before access is
  granted; an obligation the PEP does not understand forces Deny
  (XACML §7.14);
* **fail-safe enforcement**: if no PDP can be reached the PEP denies
  rather than failing open (configurable, experiments E10/E11);
* a hook for capability-based (push-model) validation, used by
  :mod:`repro.capability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from ..simnet.message import Message
from ..simnet.network import Network
from ..wsvc.ws_security import WsSecurityError
from ..xacml.context import (
    Decision,
    Obligation,
    RequestContext,
    Status,
    StatusCode,
)
from .base import Component, ComponentIdentity, RpcFault, RpcTimeout
from .cache import DecisionCache
from .channel import DecisionChannel
from .fabric import CoalescingDecisionQueue, DecisionDispatcher
from .pdp import BATCH_QUERY_ACTION, QUERY_ACTION

#: Obligation handler: receives the obligation and the request, performs
#: the action, returns True when fulfilled.
ObligationHandler = Callable[[Obligation, RequestContext], bool]

#: Revocation guard: consulted before any decision (cached or fresh) is
#: served; returns a denial reason when the request hits revoked state,
#: None to let enforcement proceed.  Installed by
#: :meth:`repro.revocation.coherence.CoherenceAgent.protect_pep`.
RevocationGuard = Callable[[RequestContext], Optional[str]]


@dataclass
class PepConfig:
    #: Decision cache TTL in simulated seconds; 0 disables the cache.
    decision_cache_ttl: float = 0.0
    #: Sign queries / verify response signatures (mutual authentication).
    secure_channel: bool = False
    #: Deny when no decision can be obtained (fail-safe); False would
    #: fail open, which no experiment enables but tests cover.
    deny_on_failure: bool = True
    #: RPC deadline towards the PDP.
    pdp_timeout: float = 2.0


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
        #: How every decision exchange of this PEP (blocking single,
        #: blocking batch, coalesced) is sealed and opened.
        self.channel = DecisionChannel(
            self, secure=self.config.secure_channel, role="pep"
        )
        #: The replica ring every query path (single, batch, coalesced)
        #: reaches its PDP through, with failover; ``pdp_address`` is a
        #: ring of one.  Replace it directly or via
        #: :meth:`enable_batching`; None (no PDP) fails every query safe.
        self.dispatcher: Optional[DecisionDispatcher] = (
            DecisionDispatcher([pdp_address]) if pdp_address is not None else None
        )
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

    def _exchange(self, action: str, payload) -> tuple[Message, str]:
        """One decision round-trip through the dispatcher's failover."""
        if self.dispatcher is None:
            raise RpcTimeout(self.name, "<none>", "no PDP configured", self.now)
        return self.dispatcher.dispatch(
            self, action, payload, timeout=self.config.pdp_timeout
        )

    def _query_pdp(self, request: RequestContext) -> XacmlAuthzDecisionStatement:
        """One blocking round-trip.  A reply that does not decode, or
        that answers another query, is a ``pep:bad-reply`` fault: the
        caller fails safe on it exactly as it does on a timeout."""
        query = XacmlAuthzDecisionQuery(
            request=request, issuer=self.name, issue_instant=self.now
        )
        action, payload = self.channel.seal(QUERY_ACTION, query.to_xml())
        reply, pdp = self._exchange(action, payload)
        return self.channel.open_statement_reply(reply, pdp, query.query_id)

    def _query_pdp_batch(
        self, requests: list[RequestContext]
    ) -> XacmlAuthzDecisionBatchStatement:
        """One batch round-trip; on the secure channel the whole batch
        rides under one WS-Security signature each way."""
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            requests, issuer=self.name, issue_instant=self.now
        )
        action, payload = self.channel.seal(BATCH_QUERY_ACTION, batch.to_xml())
        reply, pdp = self._exchange(action, payload)
        return self.channel.open_batch_reply(
            reply, pdp, batch.batch_id, len(requests)
        )

    def enable_batching(
        self,
        max_batch: int = 16,
        max_delay: float = 0.002,
        dispatcher: Optional[DecisionDispatcher] = None,
        gateway=None,
    ) -> CoalescingDecisionQueue:
        """Attach the coalescing queue (and a dispatcher or gateway).

        Afterwards :meth:`submit` feeds the queue; the synchronous
        :meth:`authorize` / :meth:`authorize_batch` paths keep working.
        A given dispatcher replaces the PEP's own for every path.  With
        a :class:`~repro.components.fabric.DomainDecisionGateway` the
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
        lands.  Requires :meth:`enable_batching` first.
        """
        if self.coalescer is None:
            raise ValueError(
                f"PEP {self.name} has no coalescing queue; "
                "call enable_batching() first"
            )
        return self.coalescer.submit(request, callback)

    # -- enforcement ----------------------------------------------------------------

    def _pre_decision(
        self, request: RequestContext, cache_key: tuple
    ) -> Optional[EnforcementResult]:
        """Guard + cache front of every path; None means 'ask a PDP'."""
        if self.revocation_guard is not None:
            reason = self.revocation_guard(request)
            if reason is not None:
                self.revocation_denials += 1
                self.denials += 1
                return EnforcementResult(
                    decision=Decision.DENY,
                    source="revocation",
                    detail=reason,
                )
        cached = self.decision_cache.get(cache_key)
        if cached is not None:
            return self._settle(request, cached, source="cache")
        return None

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
        """Full pull-model enforcement of one access request."""
        self.enforcements += 1
        tracer = self.network.tracer
        trace = tracer.begin_decision(self, request) if tracer.enabled else None
        if trace is not None:
            # A blocking RPC has no queue/batch/demux phases: record a
            # single span covering the whole call.
            trace.set("sync", True)
            trace.set("path", "authorize")
        result = self._authorize_inner(request)
        if trace is not None:
            tracer.finish_decision(
                trace,
                self,
                granted=result.granted,
                decision=str(result.decision),
                source=result.source,
            )
        return result

    def _authorize_inner(self, request: RequestContext) -> EnforcementResult:
        cache_key = request.cache_key()
        immediate = self._pre_decision(request, cache_key)
        if immediate is not None:
            return immediate
        try:
            statement = self._query_pdp(request)
        except (RpcTimeout, RpcFault, WsSecurityError) as exc:
            if self.config.deny_on_failure:
                return self._fail_safe_result(exc)
            raise
        self.decision_cache.admit(cache_key, statement)
        return self._settle(request, statement)

    def authorize_batch(
        self, requests: list[RequestContext]
    ) -> list[EnforcementResult]:
        """Synchronous batched enforcement of N requests, in order.

        Guard checks and cache hits resolve locally; the remaining
        *unique* misses travel as one batch decision query (one
        round-trip, one signature in secure mode).  Each request still
        gets its own enforcement — obligations run per waiter, and
        counters advance exactly as if :meth:`authorize` had been called
        N times.
        """
        self.enforcements += len(requests)
        results: list[Optional[EnforcementResult]] = [None] * len(requests)
        miss_order: list[tuple[tuple, RequestContext]] = []
        miss_indices: dict[tuple, list[int]] = {}
        for index, request in enumerate(requests):
            key = request.cache_key()
            immediate = self._pre_decision(request, key)
            if immediate is not None:
                results[index] = immediate
                continue
            waiters = miss_indices.get(key)
            if waiters is None:
                miss_indices[key] = [index]
                miss_order.append((key, request))
            else:
                waiters.append(index)
        if miss_order:
            try:
                statement_batch = self._query_pdp_batch(
                    [request for _, request in miss_order]
                )
            except (RpcTimeout, RpcFault, WsSecurityError) as exc:
                if not self.config.deny_on_failure:
                    raise
                for waiters in miss_indices.values():
                    for index in waiters:
                        results[index] = self._fail_safe_result(exc)
            else:
                for (key, request), statement in zip(
                    miss_order, statement_batch.statements, strict=False
                ):
                    self.decision_cache.admit(key, statement)
                    for index in miss_indices[key]:
                        results[index] = self._settle(requests[index], statement)
        tracer = self.network.tracer
        if tracer.enabled:
            for request, result in zip(requests, results, strict=True):
                tracer.sync_decision(
                    self, request, result, path="authorize_batch"
                )
        return results  # type: ignore[return-value]

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
