"""Cross-domain gateway federation: gateway→gateway decision forwarding.

The paper's subject is *multi-domain* access control, yet a
:class:`~repro.components.fabric.DomainDecisionGateway` only serves its
own domain: every decision a PEP obtains terminates at the local PDP
tier.  This module adds the missing cross-domain path.  A
:class:`FederatedGateway` classifies each drawn super-batch slot by the
domain that *governs* its resource (via a resolver backed by the
VO-wide resource directory, see :mod:`repro.domain.directory`):

* **local** slots travel to the domain's own replica set exactly as
  before;
* **remote** slots for a registered peer domain are merged into one
  :class:`ForwardedBatchQuery` per target domain and forwarded
  gateway→gateway over the existing signed envelope profile — one
  WS-Security signature per forwarded envelope, a TTL header cutting
  forwarding loops, and per-origin demultiplexing of the returned
  statements back through each contributing PEP's queue;
* slots for an *unknown* domain, and remote batches whose peer gateway
  is unreachable or answers with a fault, fall **fail-safe**: every
  waiter is denied and a ``federation.*`` metric counter records why.

The serving side accepts forwarded batches only from registered origin
domains (trust-edge-checked at registration time, see
:func:`repro.domain.federation.federate_gateways`) and, on the secure
channel, only when the envelope is signed by that origin's registered
gateway.  Served requests that turn out to be governed by yet another
domain are forwarded onward with a decremented TTL, so a misconfigured
directory produces a bounded forwarding chain ending in an
Indeterminate fail-safe statement instead of a loop.

All wire behaviour — the in-flight map, timeout failover, reply
validation, fail-safe fan-out — comes from the shared
:class:`~repro.components.fabric.BatchWireCore`; federation only adds
classification, the forwarded-envelope profile and the origin checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence
from xml.sax.saxutils import quoteattr

from ..observability.tracing import TRACE_HEADER, TraceContext
from ..saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from ..simnet.message import Message
from ..wsvc.ws_security import WsSecurityError
from ..xacml.context import (
    Decision,
    RequestContext,
    ResponseContext,
    Status,
    StatusCode,
    cache_key_touches,
)
from ..xmlutil import parse_attrs
from .base import RpcFault
from .cache import TtlCache
from .channel import is_secure_action, secure_action
from .fabric import (
    DecisionDispatcher,
    DomainDecisionGateway,
    WireJob,
    _WireSlot,
)

#: Gateway→gateway forwarded decision traffic.
FORWARD_ACTION = "xacml.request.forward"
SECURE_FORWARD_ACTION = secure_action(FORWARD_ACTION)

#: Default maximum number of gateway hops a forwarded batch may take.
DEFAULT_FORWARD_TTL = 3

#: Resolves the domain governing one request's resource (None = local).
DomainResolver = Callable[[RequestContext], Optional[str]]


@dataclass(frozen=True)
class ForwardedBatchQuery:
    """A batch decision query in transit between two domain gateways.

    Wraps the ordinary batch query with the federation headers: which
    domain (and which gateway, for signature pinning) originated it,
    and how many further gateway hops it may take.  The reply is a
    plain :class:`XacmlAuthzDecisionBatchStatement` answering the inner
    batch id, statements in query order.
    """

    batch: XacmlAuthzDecisionBatchQuery
    origin_domain: str
    origin_gateway: str
    ttl: int = DEFAULT_FORWARD_TTL
    #: Trace context of the carrying envelope, re-attached from the
    #: message *headers* on receipt (never serialised into the XML —
    #: tracing must not change a forward's wire size by one byte).
    trace: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.ttl < 1:
            raise ValueError(f"forward TTL must be >= 1, got {self.ttl}")

    def to_xml(self) -> str:
        return (
            f"<fed:ForwardedBatchQuery "
            f"OriginDomain={quoteattr(self.origin_domain)} "
            f"OriginGateway={quoteattr(self.origin_gateway)} "
            f'TTL="{self.ttl}">'
            f"{self.batch.to_xml()}"
            f"</fed:ForwardedBatchQuery>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "ForwardedBatchQuery":
        match = re.match(
            r"<fed:ForwardedBatchQuery ([^>]*)>(.*)"
            r"</fed:ForwardedBatchQuery>$",
            xml_text,
            re.DOTALL,
        )
        if match is None:
            raise ValueError("not a ForwardedBatchQuery")
        attrs = parse_attrs(match.group(1))
        for required in ("OriginDomain", "OriginGateway", "TTL"):
            if required not in attrs:
                raise ValueError(f"ForwardedBatchQuery missing {required}")
        return cls(
            batch=XacmlAuthzDecisionBatchQuery.from_xml(match.group(2)),
            origin_domain=attrs["OriginDomain"],
            origin_gateway=attrs["OriginGateway"],
            ttl=int(attrs["TTL"]),
        )


@dataclass
class _ServicePart:
    """One request of a forwarded batch being served at this gateway."""

    context: "_ServiceContext"
    index: int
    request: RequestContext


class _ServiceContext:
    """Gathers the answers to one inbound forwarded batch.

    The batch's requests may split across the local PDP tier, onward
    forwards (directory says another domain governs them) and immediate
    fail-safe statements (TTL exhausted, unknown domain).  The context
    holds the statement array in query order and replies to the origin
    gateway once every group has landed.
    """

    def __init__(
        self, gateway: "FederatedGateway", message: Message, fwd: ForwardedBatchQuery
    ) -> None:
        self.gateway = gateway
        self.message = message
        self.fwd = fwd
        self.statements: list = [None] * len(fwd.batch.queries)
        self.outstanding = 0
        self.replied = False
        self.arrived_at = gateway.now
        # Serving-hop trace context: parented under the origin
        # envelope's span (carried in the forward's message headers),
        # one hop deeper.  Onward envelopes sent for this context join
        # the same trace through ``serve_ctx`` — that is how remote-hop
        # spans parent correctly across domains.
        self.serve_ctx: Optional[TraceContext] = None
        self._serve_parent: Optional[str] = None
        self._counts: Optional[dict[str, int]] = None
        tracer = gateway.network.tracer
        if tracer.enabled:
            context = TraceContext.parse(fwd.trace)
            if context is not None:
                self.serve_ctx = tracer.child_context(context)
                self._serve_parent = context.span_id

    def start(self) -> None:
        gateway = self.gateway
        counters_before = (
            gateway.recheck_failures,
            gateway.misroutes_detected,
            gateway.misroutes_reforwarded,
            gateway.ttl_denials,
            gateway.unknown_domain_denials,
        )
        local_parts: list[_ServicePart] = []
        onward: dict[str, list[_ServicePart]] = {}
        for index, query in enumerate(self.fwd.batch.queries):
            try:
                governing = gateway._serving_domain(query.request)
            except Exception as exc:
                # The authoritative re-check could not be completed:
                # deciding under this gateway's own (possibly stale)
                # policy could mis-grant, so the request fails closed.
                gateway.recheck_failures += 1
                gateway.network.metrics.bump("federation.recheck_failed")
                self.statements[index] = gateway._indeterminate_statement(
                    query,
                    f"authoritative directory re-check failed: {exc}",
                )
                continue
            if governing == gateway.domain:
                local_parts.append(_ServicePart(self, index, query.request))
                continue
            # The origin believed this gateway governs the resource and
            # the (authoritative, when configured) serving-side check
            # disagrees: a misroute — stale origin directory cache or
            # conflicting configuration.  Never mis-decide it locally;
            # re-forward (below) or fail safe.
            gateway.misroutes_detected += 1
            gateway.network.metrics.bump("federation.misroute")
            if governing in gateway._peers and self.fwd.ttl > 1:
                gateway.misroutes_reforwarded += 1
                onward.setdefault(governing, []).append(
                    _ServicePart(self, index, query.request)
                )
            elif governing in gateway._peers:
                gateway.ttl_denials += 1
                gateway.network.metrics.bump("federation.ttl_expired")
                self.statements[index] = gateway._indeterminate_statement(
                    query, f"forward TTL exhausted at {gateway.domain!r}"
                )
            else:
                gateway.unknown_domain_denials += 1
                gateway.network.metrics.bump("federation.unknown_domain")
                self.statements[index] = gateway._indeterminate_statement(
                    query, f"no route to domain {governing!r}"
                )
        if self.serve_ctx is not None:
            # ``start`` runs atomically in simulated time, so the
            # counter deltas are exactly this batch's routing outcomes —
            # recorded on the serve span for the trace-query audits.
            self._counts = {
                "recheck_failed": gateway.recheck_failures
                - counters_before[0],
                "misroutes": gateway.misroutes_detected - counters_before[1],
                "reforwarded": gateway.misroutes_reforwarded
                - counters_before[2],
                "ttl_expired": gateway.ttl_denials - counters_before[3],
                "unknown_domain": gateway.unknown_domain_denials
                - counters_before[4],
                "local": len(local_parts),
            }
        groups: list[tuple[Optional[str], list[_ServicePart]]] = []
        if local_parts:
            groups.append((None, local_parts))
        groups.extend(sorted(onward.items()))
        self.outstanding = len(groups)
        for target, parts in groups:
            if target is None:
                gateway._wire.send(
                    parts, job=gateway._service_job(self._deliver, self._fail)
                )
            else:
                gateway._wire.send(
                    parts,
                    job=gateway._forward_job(
                        target,
                        ttl=self.fwd.ttl - 1,
                        deliver=self._deliver,
                        fail=self._fail,
                    ),
                )
        if not groups:
            self._maybe_reply()

    # -- group completion ---------------------------------------------------------

    def _deliver(self, parts: list[_ServicePart], statements: Sequence) -> None:
        for part, statement in zip(parts, statements, strict=False):
            self.statements[part.index] = statement
        self._complete_group()

    def _fail(self, parts: list[_ServicePart], exc: Exception) -> None:
        gateway = self.gateway
        for part in parts:
            query = self.fwd.batch.queries[part.index]
            self.statements[part.index] = gateway._indeterminate_statement(
                query, f"fail-safe deny: {exc}"
            )
        self._complete_group()

    def _complete_group(self) -> None:
        self.outstanding -= 1
        self._maybe_reply()

    def _maybe_reply(self) -> None:
        if self.replied or self.outstanding > 0:
            return
        self.replied = True
        gateway = self.gateway
        answer = XacmlAuthzDecisionBatchStatement(
            statements=tuple(self.statements),
            in_response_to=self.fwd.batch.batch_id,
            issuer=gateway.name,
            issue_instant=gateway.now,
        )
        payload = gateway.channel.seal_reply(self.message, answer.to_xml())
        gateway.forwarded_decisions_returned += len(self.statements)
        if self.serve_ctx is not None:
            gateway.network.tracer.emit(
                "federation.serve",
                gateway.name,
                gateway.domain,
                start=self.arrived_at,
                end=gateway.now,
                trace_id=self.serve_ctx.trace_id,
                parent_id=self._serve_parent,
                span_id=self.serve_ctx.span_id,
                hops=self.serve_ctx.hops,
                origin_domain=self.fwd.origin_domain,
                batch_id=self.fwd.batch.batch_id,
                decisions=len(self.statements),
                **(self._counts or {}),
            )
        gateway.node.send(
            self.message.reply(
                kind=f"{self.message.kind}:response", payload=payload
            )
        )


class FederatedGateway(DomainDecisionGateway):
    """A domain gateway that also routes decisions *between* domains.

    On top of the aggregation tier it inherits, the federated gateway:

    * classifies every drawn slot by governing domain (``resolve_domain``,
      usually :meth:`repro.domain.directory.ResourceDirectory.resolver`);
    * forwards remote-domain slot groups to the registered peer
      gateway of that domain (:meth:`add_peer`) as one signed
      :class:`ForwardedBatchQuery` envelope, demultiplexing the
      returned statements back through the owning PEP queues;
    * optionally routes remote groups straight at a remote replica set
      (:meth:`add_direct_route`) — the naive per-PEP-direct baseline
      experiment E18 measures federation against;
    * serves forwarded batches from registered origins
      (:meth:`allow_origin`), re-forwarding onward-governed requests
      with a decremented TTL and failing safe on exhaustion;
    * denies (fail-safe, with a metric) anything whose governing domain
      has neither a peer nor a direct route, and everything riding an
      envelope whose peer is unreachable or rejected.

    Remote slots are not forwarded the instant a drain step classifies
    them: they accumulate in a per-target-domain buffer that flushes on
    ``forward_batch`` slots or after ``forward_delay`` seconds.  The
    inter-domain hop is the expensive one (WAN latency, a WS-Security
    signature per envelope), so trading a bounded extra origin-side
    delay — tune ``forward_delay`` to a fraction of the inter-domain
    round trip — re-amortises it even when the local closed loop has
    decayed to trickle-sized drains.

    Remote decisions may additionally be cached *at this tier*
    (``remote_cache_ttl``): the cache key is the slot's bare request
    identity (PEP scope already stripped by the wire-slot dedup), so one
    cross-domain round trip serves every PEP behind the gateway for the
    TTL — the paper's §3.2 caching lever applied to the most expensive
    hop.  Hits are demultiplexed per PEP exactly like remote replies;
    misses ride the ordinary forwarded envelope (all waiting PEP slots
    attached).  Only definitive decisions (Permit/Deny) are cached —
    fail-safe Indeterminate statements are transient by construction.
    The staleness this cache adds is bounded by the TTL *and* by
    revocation coherence: a
    :class:`~repro.revocation.coherence.CoherenceAgent` protecting the
    gateway (``protect_gateway``) selectively invalidates entries as
    revocation records arrive (push/pull/hybrid strategies).

    Args:
        resolve_domain: maps a request to its governing domain name;
            None (the callable, or its return value) means local.
        resolve_authoritative: optional *authoritative* resolver used
            when serving inbound forwarded batches.  When
            ``resolve_domain`` reads a TTL'd directory cache (see
            :class:`~repro.domain.directory_service.DirectoryClient`),
            a stale origin may misroute requests here; the serving-side
            re-check detects that and re-forwards to the true governing
            domain instead of mis-deciding.  Defaults to
            ``resolve_domain``.
        forward_ttl: gateway hops a forwarded batch may take.
        forward_batch: flush a target domain's buffered slots as soon
            as this many wait (default: the gateway's ``max_batch``).
        forward_delay: flush a target domain's buffered slots this many
            simulated seconds after the first entered an empty buffer
            (default: the gateway's ``max_delay``).
        peer_timeout: reply deadline for gateway→gateway envelopes
            (defaults to ``pdp_timeout``).
        remote_cache_ttl: lifetime of gateway-tier cached remote
            decisions in simulated seconds; 0 (default) disables the
            cache — the PR 4 behaviour.
        remote_cache_capacity: LRU capacity of the remote-decision
            cache.
    """

    def __init__(
        self,
        name: str,
        network,
        dispatcher: DecisionDispatcher,
        domain: str,
        resolve_domain: Optional[DomainResolver] = None,
        resolve_authoritative: Optional[DomainResolver] = None,
        forward_ttl: int = DEFAULT_FORWARD_TTL,
        forward_batch: Optional[int] = None,
        forward_delay: Optional[float] = None,
        peer_timeout: Optional[float] = None,
        remote_cache_ttl: float = 0.0,
        remote_cache_capacity: int = 10_000,
        **kwargs,
    ) -> None:
        if not domain:
            raise ValueError("a federated gateway needs a domain name")
        if forward_ttl < 1:
            raise ValueError(f"forward_ttl must be >= 1, got {forward_ttl}")
        if forward_batch is not None and forward_batch < 1:
            raise ValueError(
                f"forward_batch must be >= 1, got {forward_batch}"
            )
        if forward_delay is not None and forward_delay < 0:
            raise ValueError(
                f"forward_delay must be >= 0, got {forward_delay}"
            )
        super().__init__(name, network, dispatcher, domain=domain, **kwargs)
        self.resolve_domain = resolve_domain
        self.resolve_authoritative = resolve_authoritative
        self.forward_ttl = forward_ttl
        self.forward_batch = (
            forward_batch if forward_batch is not None else self.max_batch
        )
        self.forward_delay = (
            forward_delay if forward_delay is not None else self.max_delay
        )
        self.peer_timeout = (
            peer_timeout if peer_timeout is not None else self.pdp_timeout
        )
        #: Remote domain -> that domain's gateway address (forwarding).
        self._peers: dict[str, str] = {}
        #: Origin domain -> its registered gateway address (serving side;
        #: doubles as the expected envelope signer on the secure channel).
        self._origins: dict[str, str] = {}
        #: Remote domain -> dispatcher over its replicas (naive baseline).
        self._direct: dict[str, DecisionDispatcher] = {}
        #: Remote domain -> slots awaiting the next forwarded envelope.
        self._forward_backlog: dict[str, list[_WireSlot]] = {}
        self._forward_handles: dict[str, object] = {}
        #: Gateway-tier cache of remote decisions, keyed by the bare
        #: request identity (cache_key) — shared across every PEP
        #: behind this gateway.
        self.remote_cache: TtlCache = TtlCache(
            ttl=remote_cache_ttl,
            clock=lambda: self.now,
            capacity=remote_cache_capacity,
        )
        #: Invalidation fences: decisions *issued* at or before the
        #: fence must not (re-)enter the remote cache — an in-flight
        #: reply granted under the pre-revocation world would otherwise
        #: re-poison the cache moments after coherence cleaned it.
        self._remote_fence = 0.0
        self._subject_fences: dict[str, float] = {}
        self._resource_fences: dict[str, float] = {}
        self.requests_forwarded = 0
        self.forwarded_batches_sent = 0
        self.forwarded_batches_served = 0
        self.forwarded_decisions_returned = 0
        self.remote_decisions_delivered = 0
        self.remote_cache_hits = 0
        self.remote_cache_decisions_served = 0
        self.remote_cache_fenced = 0
        self.misroutes_detected = 0
        self.misroutes_reforwarded = 0
        self.recheck_failures = 0
        self.direct_batches_sent = 0
        self.unknown_domain_denials = 0
        self.peer_failures = 0
        self.ttl_denials = 0
        self.origin_rejections = 0
        for action in (FORWARD_ACTION, SECURE_FORWARD_ACTION):
            self.on(action, self._handle_forward)
            self.on(f"{action}:response", self._wire.handle_reply)
            self.on(f"{action}:fault", self._wire.handle_fault)

    # -- federation topology -------------------------------------------------------

    def add_peer(self, domain_name: str, gateway_address: str) -> None:
        """Register the gateway this domain forwards ``domain_name``'s
        traffic to."""
        if domain_name == self.domain:
            raise ValueError(f"{domain_name!r} is this gateway's own domain")
        self._peers[domain_name] = gateway_address

    def allow_origin(self, domain_name: str, gateway_address: str) -> None:
        """Accept forwarded batches originated by ``domain_name``.

        ``gateway_address`` pins the expected WS-Security signer on the
        secure channel.
        """
        if domain_name == self.domain:
            raise ValueError(f"{domain_name!r} is this gateway's own domain")
        self._origins[domain_name] = gateway_address

    def add_direct_route(
        self, domain_name: str, dispatcher: DecisionDispatcher
    ) -> None:
        """Route ``domain_name``'s traffic straight at its replicas.

        The naive baseline: no aggregation across this domain's PEPs at
        the remote end, one envelope per drain per remote domain per
        *source* gateway.  A registered peer gateway takes precedence.
        """
        if domain_name == self.domain:
            raise ValueError(f"{domain_name!r} is this gateway's own domain")
        self._direct[domain_name] = dispatcher

    @property
    def peer_domains(self) -> list[str]:
        return sorted(self._peers)

    @property
    def accepted_origins(self) -> list[str]:
        return sorted(self._origins)

    # -- classification ------------------------------------------------------------

    def _governing_domain(self, request: RequestContext) -> str:
        governing = (
            self.resolve_domain(request) if self.resolve_domain else None
        )
        return governing or self.domain

    def _serving_domain(self, request: RequestContext) -> str:
        """The governing domain as the *serving* side must see it.

        Inbound forwarded batches are classified with the authoritative
        resolver when one is configured: accepting an origin's (possibly
        stale-cache-derived) routing at face value would let a directory
        transfer turn into wrong decisions instead of re-forwards.
        """
        if self.resolve_authoritative is not None:
            governing = self.resolve_authoritative(request)
            return governing or self.domain
        return self._governing_domain(request)

    def _dispatch_slots(self, slots: list[_WireSlot]) -> float:
        """Partition one drawn super-batch by governing domain and send.

        Local slots ride the inherited PDP-tier path; each remote group
        becomes one forwarded (or direct) envelope.  Unknown domains
        fail safe immediately.  Envelopes serialise onto the same
        egress wire, so the paced drain waits for their summed
        transmission time.
        """
        groups: dict[str, list[_WireSlot]] = {}
        for slot in slots:
            groups.setdefault(self._governing_domain(slot.request), []).append(
                slot
            )
        tx_time = 0.0
        for target in sorted(groups, key=lambda t: (t != self.domain, t)):
            group = groups[target]
            if target == self.domain:
                tx_time += self._send_local(group)
            elif target in self._peers:
                misses = self._serve_cached_remote(group)
                if misses:
                    self._buffer_forward(target, misses)
            elif target in self._direct:
                tx_time += self._wire.send(group, job=self._direct_job(target))
            else:
                denied = sum(len(slot.entries) for slot in group)
                self.unknown_domain_denials += denied
                self.network.metrics.bump("federation.unknown_domain", denied)
                self._fail_slots(
                    group,
                    RpcFault(
                        "federation:unknown-domain",
                        f"no gateway or route for domain {target!r}",
                    ),
                )
        return tx_time

    # -- the gateway-tier remote-decision cache ---------------------------------------

    def _serve_cached_remote(
        self, slots: list[_WireSlot]
    ) -> list[_WireSlot]:
        """Serve cache hits locally; return the slots that must travel.

        A hit completes every waiting PEP entry of the slot through its
        owning queue (per-PEP enforcement, obligations and counters all
        apply, exactly as for a remote reply) without any cross-domain
        message.  Misses are returned for the forwarding buffer — their
        slots keep accumulating waiters while buffered, so the one
        forwarded query carries every PEP waiting on the identity.

        Delivery is deferred to a zero-delay event rather than run
        inline: a completion callback may submit the next request
        (closed loop) and flush straight back into this gateway, and a
        nested ``_drain_step`` while the outer drain is still
        classifying would break the paced-drain invariant (two
        scheduled drains, only one tracked).  The slot stays in
        ``_inflight_slots`` until the deferred delivery fires, so
        late-joining waiters still attach and are served with it.
        """
        if not self.remote_cache.enabled:
            return slots
        misses: list[_WireSlot] = []
        for slot in slots:
            statement = self.remote_cache.get(slot.cache_key)
            if statement is None:
                misses.append(slot)
                continue
            self.remote_cache_hits += 1
            self.network.metrics.bump("federation.remote_cache_hit")
            self.network.loop.schedule(
                0.0,
                lambda slot=slot, statement=statement: (
                    self._deliver_cached_slot(slot, statement)
                ),
                label="federation-cache-hit",
            )
        return misses

    def _deliver_cached_slot(self, slot: _WireSlot, statement) -> None:
        # Counted at delivery time so waiters that joined the inflight
        # slot after the hit are included.
        self.remote_cache_decisions_served += len(slot.entries)
        tracer = self.network.tracer
        if tracer.enabled:
            # No envelope left this gateway: the riding decisions' wire
            # phase collapses to zero, labelled as a gateway-cache hit.
            tracer.cache_hit(self, [slot], cache="gateway-remote")
        self._deliver_slots([slot], [statement])

    def _cache_remote_statements(
        self, slots: list[_WireSlot], statements: Sequence
    ) -> None:
        """Retain definitive remote decisions for the cache TTL.

        Indeterminate / NotApplicable statements are fail-safe or
        routing artefacts, not policy outcomes — caching them would pin
        a transient peer failure onto the whole PEP fleet for a TTL.
        """
        if not self.remote_cache.enabled:
            return
        for slot, statement in zip(slots, statements, strict=False):
            if not statement.response.decision.is_definitive:
                continue
            if self._fenced(slot.request, statement.issue_instant):
                self.remote_cache_fenced += 1
                continue
            self.remote_cache.put(slot.cache_key, statement)

    def _fenced(self, request: RequestContext, issued_at: float) -> bool:
        """Was this decision issued no later than a matching fence?

        The fence closes the re-poisoning race: a revocation's
        invalidation can land while a pre-revocation decision is still
        in flight; caching that reply would resurrect exactly the entry
        coherence just killed, for a whole TTL.
        """
        fence = self._remote_fence
        subject = request.subject_id
        if subject is not None:
            fence = max(fence, self._subject_fences.get(subject, 0.0))
        resource = request.resource_id
        if resource is not None:
            fence = max(fence, self._resource_fences.get(resource, 0.0))
        return fence > 0.0 and issued_at <= fence

    def invalidate_remote_decisions(self) -> None:
        """Drop every gateway-tier cached remote decision."""
        self._remote_fence = self.now
        self.remote_cache.clear()

    def invalidate_remote_decisions_for(
        self,
        subject_id: Optional[str] = None,
        resource_id: Optional[str] = None,
    ) -> int:
        """Selectively drop cached remote decisions (revocation coherence).

        The gateway-tier twin of :meth:`~repro.components.pep.
        PolicyEnforcementPoint.invalidate_decisions_for`: entries whose
        request identity touches the revoked subject and/or resource are
        dropped; everything else keeps amortising.  Returns the number
        of entries invalidated.
        """
        if subject_id is None and resource_id is None:
            return 0
        if subject_id is not None:
            self._subject_fences[subject_id] = self.now
        if resource_id is not None:
            self._resource_fences[resource_id] = self.now
        return self.remote_cache.invalidate_where(
            lambda key: cache_key_touches(
                key, subject_id=subject_id, resource_id=resource_id
            )
        )

    def remote_cache_stats(self) -> dict[str, float]:
        """Hit/miss snapshot with expired entries purged first."""
        self.remote_cache.purge_expired()
        snapshot = self.remote_cache.stats.snapshot()
        snapshot["entries"] = len(self.remote_cache)
        return snapshot

    # -- the forwarding buffer -------------------------------------------------------

    def _buffer_forward(self, target: str, slots: list[_WireSlot]) -> None:
        """Accumulate remote slots until the target's buffer fills/ages.

        The slots are already marked in flight at the gateway tier, so
        identical requests arriving meanwhile still join them (the
        buffer deepens the dedup window rather than bypassing it).
        """
        backlog = self._forward_backlog.setdefault(target, [])
        backlog.extend(slots)
        if len(backlog) >= self.forward_batch:
            self._flush_forward(target)
        elif target not in self._forward_handles:
            self._forward_handles[target] = self.network.loop.schedule(
                self.forward_delay,
                lambda: self._flush_forward(target),
                label="federation-forward",
            )

    def _flush_forward(self, target: str) -> None:
        handle = self._forward_handles.pop(target, None)
        if handle is not None:
            self.network.loop.cancel(handle)
        backlog = self._forward_backlog.get(target, [])
        while backlog:
            chunk, backlog = (
                backlog[: self.forward_batch],
                backlog[self.forward_batch :],
            )
            self._forward_backlog[target] = backlog
            self._wire.send(chunk, job=self._forward_job(target))

    # -- the forwarding wire (jobs for the shared core) -----------------------------

    def _forward_job(
        self,
        target: str,
        ttl: Optional[int] = None,
        deliver=None,
        fail=None,
    ) -> WireJob:
        peer = self._peers[target]
        hops = self.forward_ttl if ttl is None else ttl

        def select(exclude: Sequence[str]) -> Optional[str]:
            return None if peer in exclude else peer

        def encode(batch: XacmlAuthzDecisionBatchQuery) -> tuple[str, str]:
            forwarded = ForwardedBatchQuery(
                batch=batch,
                origin_domain=self.domain,
                origin_gateway=self.name,
                ttl=hops,
            )
            return FORWARD_ACTION, forwarded.to_xml()

        return WireJob(
            select=select,
            # The channel pins the reply's signer to the envelope's
            # destination, which for a forward job is the peer gateway.
            deliver=deliver if deliver is not None else self._deliver_remote_slots,
            fail=fail if fail is not None else self._fail_forwarded_slots,
            timeout=self.peer_timeout,
            channel=self.channel,
            encode=encode,
            on_sent=self._note_forward,
        )

    def _direct_job(self, target: str) -> WireJob:
        dispatcher = self._direct[target]
        return WireJob(
            select=lambda exclude: dispatcher.select(exclude=exclude),
            deliver=self._deliver_remote_slots,
            fail=self._fail_slots,
            timeout=self.pdp_timeout,
            channel=self.channel,
            dispatcher=dispatcher,
            on_sent=self._note_direct,
        )

    def _service_job(self, deliver, fail) -> WireJob:
        """Local PDP-tier service of (part of) an inbound forwarded batch."""
        return WireJob(
            select=self._select_replica,
            deliver=deliver,
            fail=fail,
            timeout=self.pdp_timeout,
            channel=self.channel,
            dispatcher=self.dispatcher,
        )

    def _note_forward(self, items: list) -> None:
        self.forwarded_batches_sent += 1
        self.requests_forwarded += len(items)

    def _note_direct(self, items: list) -> None:
        self.direct_batches_sent += 1

    def _deliver_remote_slots(
        self, slots: list[_WireSlot], statements: Sequence
    ) -> None:
        self.remote_decisions_delivered += sum(
            len(slot.entries) for slot in slots
        )
        self._cache_remote_statements(slots, statements)
        self._deliver_slots(slots, statements)

    def _fail_forwarded_slots(
        self, slots: list[_WireSlot], exc: Exception
    ) -> None:
        denied = sum(len(slot.entries) for slot in slots)
        self.peer_failures += denied
        self.network.metrics.bump("federation.peer_unreachable", denied)
        self._fail_slots(slots, exc)

    # -- the serving side ------------------------------------------------------------

    def _attach_trace(
        self, forwarded: ForwardedBatchQuery, message: Message
    ) -> ForwardedBatchQuery:
        """Re-attach the header-borne trace context to the decoded
        forward (the context is carried *beside* the XML, never in it,
        so tracing cannot perturb forward sizes)."""
        header = message.headers.get(TRACE_HEADER)
        if header is None or not self.network.tracer.enabled:
            return forwarded
        return replace(forwarded, trace=str(header))

    def _reject_origin(self, code: str, reason: str) -> RpcFault:
        self.origin_rejections += 1
        self.network.metrics.bump("federation.origin_rejected")
        return RpcFault(code, reason)

    def _handle_forward(self, message: Message) -> None:
        if self.channel.secure and not is_secure_action(message.kind):
            raise self._reject_origin(
                "federation:insecure-forward",
                "this gateway only accepts signed forwards",
            )
        try:
            body, signer = self.channel.open_request(message)
            forwarded = self._attach_trace(
                ForwardedBatchQuery.from_xml(body), message
            )
        except (WsSecurityError, RpcFault) as exc:
            raise self._reject_origin("federation:bad-signature", str(exc)) from exc
        except Exception as exc:
            raise RpcFault("federation:bad-forward", str(exc)) from exc
        expected = self._origins.get(forwarded.origin_domain)
        if expected is None:
            raise self._reject_origin(
                "federation:untrusted-origin",
                f"domain {forwarded.origin_domain!r} is not an accepted origin",
            )
        if signer is not None and signer != expected:
            raise self._reject_origin(
                "federation:bad-signature",
                f"forward signed by {signer!r}, expected {expected!r}",
            )
        self.forwarded_batches_served += 1
        _ServiceContext(self, message, forwarded).start()
        return None

    def _indeterminate_statement(
        self, query: XacmlAuthzDecisionQuery, reason: str
    ) -> XacmlAuthzDecisionStatement:
        """A fail-safe answer for one forwarded query (enforced as deny)."""
        return XacmlAuthzDecisionStatement(
            response=ResponseContext.single(
                Decision.INDETERMINATE,
                status=Status(
                    code=StatusCode.PROCESSING_ERROR, message=reason
                ),
            ),
            in_response_to=query.query_id,
            issuer=self.name,
            issue_instant=self.now,
        )

    def __repr__(self) -> str:
        return (
            f"FederatedGateway({self.name}, domain={self.domain!r}, "
            f"peps={len(self._queues)}, peers={self.peer_domains}, "
            f"pending={len(self._pending_slots)}, inflight={self.inflight_count})"
        )
