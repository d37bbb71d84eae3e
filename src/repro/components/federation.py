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
domains (:meth:`FederatedGateway.allow_origin`) and, on the secure
channel, only when the envelope is signed by that origin's registered
gateway.  Both tables hold deployment addresses; the VO trust graph
decides whether an entry stands, and a
:class:`~repro.revocation.coherence.CoherenceAgent` withdraws one when
the matching trust edge is revoked (DECISION: the peer; IDENTITY: the
origin).  Served requests that turn out to be governed by yet another
domain are forwarded onward with a decremented TTL, so a misconfigured
directory produces a bounded forwarding chain ending in an
Indeterminate fail-safe statement instead of a loop.

Remote slots wait in one :class:`~repro.components.fabric.
BatchingStage` per peer domain — a second window downstream of the
gateway's own — whose drain is the only batching code here: back-to-back
chunks of the gateway's ``max_batch`` until the buffer is empty.  All wire
behaviour — shard partitioning, the in-flight map, timeout failover,
reply validation, fail-safe fan-out — comes from the shared
:class:`~repro.components.fabric.BatchWireCore`, for outbound forwards
and for serving inbound ones alike; federation only adds
classification, the forwarded-envelope profile and the origin checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Callable, Optional, Sequence
from xml.sax.saxutils import quoteattr

from ..domain.directory import DomainResolver
from ..observability.tracing import TRACE_HEADER, TraceContext
from ..saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
    parse_envelope,
    qualified,
    wire_number,
)
from ..simnet.message import Message
from ..wsvc.ws_security import WsSecurityError
from ..xacml.context import (
    Decision,
    RequestContext,
    ResponseContext,
    Status,
    StatusCode,
)
from .base import DEFAULT_TIMEOUT, Component, RpcFault
from .cache import DecisionCache
from .channel import is_secure_action, secure_action
from .fabric import (
    BatchingStage,
    DecisionDispatcher,
    DomainDecisionGateway,
    Slot,
    WireJob,
    batch_query,
)

#: Gateway→gateway forwarded decision traffic.
FORWARD_ACTION = "xacml.request.forward"
SECURE_FORWARD_ACTION = secure_action(FORWARD_ACTION)

#: Maximum number of gateway hops a forwarded batch may take.
FORWARD_TTL = 3

_FORWARD_TAG = qualified("fed:ForwardedBatchQuery")
_NOT_A_FORWARD = "not a ForwardedBatchQuery"


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
    ttl: int = FORWARD_TTL

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

    @classmethod
    def from_xml(cls, xml_text: str) -> "ForwardedBatchQuery":
        """One expat pass for the wrapper and the batch it carries."""
        element = parse_envelope(xml_text, _NOT_A_FORWARD)
        if element.tag != _FORWARD_TAG or len(element) != 1:
            raise ValueError(_NOT_A_FORWARD)
        if element.text is not None or element.tail is not None:
            raise ValueError(_NOT_A_FORWARD)
        attrs = element.attrib
        for required in ("OriginDomain", "OriginGateway", "TTL"):
            if required not in attrs:
                raise ValueError(f"ForwardedBatchQuery missing {required}")
        return cls(
            batch=XacmlAuthzDecisionBatchQuery.from_element(element[0]),
            origin_domain=attrs["OriginDomain"],
            origin_gateway=attrs["OriginGateway"],
            ttl=wire_number(attrs["TTL"], int, _NOT_A_FORWARD),
        )


class _ServiceContext:
    """Gathers the answers to one inbound forwarded batch.

    The batch's requests may split across the local PDP tier, onward
    forwards (directory says another domain governs them) and immediate
    fail-safe statements (TTL exhausted, unknown domain).  Each request
    that travels is a :class:`~repro.components.fabric.Slot` keyed by
    its index in the batch; the context holds the statement array in
    query order and replies to the origin gateway once every slot has
    landed.
    """

    def __init__(
        self, gateway: "FederatedGateway", message: Message, fwd: ForwardedBatchQuery
    ) -> None:
        self.gateway = gateway
        self.message = message
        self.fwd = fwd
        self.statements: list = [None] * len(fwd.batch.queries)
        self.outstanding = 0
        self.arrived_at = gateway.now
        # Serving-hop trace context: parented under the origin
        # envelope's span (carried in the forward's message headers),
        # one hop deeper.  Envelopes sent for this context are handed
        # ``serve_ctx`` as their parent — that is how remote-hop spans
        # parent correctly across domains.
        self.serve_ctx: Optional[TraceContext] = None
        self._serve_parent: Optional[str] = None
        self._counts: Optional[dict[str, int]] = None
        tracer = gateway.network.tracer
        if tracer.enabled:
            # The context rides the message *headers*, never the XML:
            # tracing must not change a forward's wire size by one byte.
            context = TraceContext.parse(message.headers.get(TRACE_HEADER))
            if context is not None:
                self.serve_ctx = tracer.child_context(context)
                self._serve_parent = context.span_id

    def start(self) -> None:
        """Classify the batch's requests (the authoritative re-check,
        when configured) and send each on its way."""
        self.gateway._classify(
            [query.request for query in self.fwd.batch.queries],
            self._route,
            authoritative=True,
        )

    def _route(self, domains: list) -> None:
        gateway = self.gateway
        # This batch's routing outcomes, for the serve span.  Counted
        # here, not as deltas of the gateway's counters: other batches
        # are served while an authoritative re-check is on the wire.
        counts = dict.fromkeys(
            ("recheck_failed", "misroutes", "reforwarded", "ttl_expired", "unknown_domain"),
            0,
        )
        #: Governing domain -> the slots travelling there (this domain's
        #: own replica set, or onward to a peer).
        routes: dict[str, list[Slot]] = {}
        for index, (query, governing) in enumerate(
            zip(self.fwd.batch.queries, domains, strict=True)
        ):
            if isinstance(governing, Exception):
                # The authoritative re-check could not be completed:
                # deciding under this gateway's own (possibly stale)
                # policy could mis-grant, so the request fails closed.
                gateway.recheck_failures += 1
                counts["recheck_failed"] += 1
                gateway.network.metrics.bump("federation.recheck_failed")
                self.statements[index] = gateway._indeterminate_statement(
                    query,
                    f"authoritative directory re-check failed: {governing}",
                )
                continue
            if governing != gateway.domain:
                # The origin believed this gateway governs the resource
                # and the (authoritative, when configured) serving-side
                # check disagrees: a misroute — stale origin directory
                # cache or conflicting configuration.  Never mis-decide
                # it locally; re-forward or fail safe.
                gateway.misroutes_detected += 1
                counts["misroutes"] += 1
                gateway.network.metrics.bump("federation.misroute")
                if governing not in gateway._peers:
                    gateway.unknown_domain_denials += 1
                    counts["unknown_domain"] += 1
                    gateway.network.metrics.bump("federation.unknown_domain")
                    self.statements[index] = gateway._indeterminate_statement(
                        query, f"no route to domain {governing!r}"
                    )
                    continue
                if self.fwd.ttl <= 1:
                    gateway.ttl_denials += 1
                    counts["ttl_expired"] += 1
                    gateway.network.metrics.bump("federation.ttl_expired")
                    self.statements[index] = gateway._indeterminate_statement(
                        query, f"forward TTL exhausted at {gateway.domain!r}"
                    )
                    continue
                gateway.misroutes_reforwarded += 1
                counts["reforwarded"] += 1
            routes.setdefault(governing, []).append(
                Slot(query.request, index, self.fwd.origin_domain)
            )
        if self.serve_ctx is not None:
            self._counts = {**counts, "local": len(routes.get(gateway.domain, ()))}
        self.outstanding = sum(map(len, routes.values()))
        if not self.outstanding:  # nothing travels: answer at once
            self._reply()
        # The local replica set first (shard-partitioned by the wire
        # core exactly like this domain's own traffic), then onward.
        for target in sorted(routes, key=lambda t: (t != gateway.domain, t)):
            gateway._wire.send(
                routes[target],
                job=gateway._serving_job(
                    target, self.fwd.ttl - 1, self._deliver, self._fail
                ),
                parent=self.serve_ctx,
            )

    # -- slot completion ----------------------------------------------------------

    def _deliver(self, parts: list[Slot], statements: Sequence) -> None:
        for part, statement in zip(parts, statements, strict=False):
            self.statements[part.key] = statement
        self._landed(len(parts))

    def _fail(self, parts: list[Slot], exc: Exception) -> None:
        for part in parts:
            self.statements[part.key] = self.gateway._indeterminate_statement(
                self.fwd.batch.queries[part.key], f"fail-safe deny: {exc}"
            )
        self._landed(len(parts))

    def _landed(self, count: int) -> None:
        self.outstanding -= count
        if not self.outstanding:
            self._reply()

    def _reply(self) -> None:
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
        gateway.respond(self.message, payload)


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
    * drops a peer or an origin whose trust edge was revoked
      (:meth:`withdraw_peer`, :meth:`withdraw_origin`);
    * denies (fail-safe, with a metric) anything whose governing domain
      has neither a peer nor a direct route, and everything riding an
      envelope whose peer is unreachable or rejected.

    Remote slots are not forwarded the instant a drain step classifies
    them: they accumulate in a per-target-domain buffer (a
    :class:`~repro.components.fabric.BatchingStage` downstream of the
    gateway's own) that flushes on ``max_batch`` slots or after
    ``forward_delay`` seconds, as unpaced back-to-back chunks of
    ``max_batch``; they stay in flight at the gateway stage
    meanwhile, so late identical requests still join them.  The
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
    revocation records arrive (push/pull/hybrid strategies).  The cache
    is a :class:`~repro.components.cache.DecisionCache`, the PEP tier's
    own class: a reply issued at or before an invalidation that touches
    it is delivered but not retained.

    Args:
        resolve_domain: a :data:`~repro.domain.directory.
            DomainResolver` naming each drawn request's governing
            domain; None (the resolver, or an answer) means local.
        resolve_authoritative: optional *authoritative* resolver used
            when serving inbound forwarded batches.  When
            ``resolve_domain`` reads a TTL'd directory cache (see
            :class:`~repro.domain.directory_service.DirectoryClient`),
            a stale origin may misroute requests here; the serving-side
            re-check detects that and re-forwards to the true governing
            domain instead of mis-deciding.  An answer that is an
            exception fails its request closed.  Defaults to
            ``resolve_domain``.
        forward_delay: flush a target domain's buffered slots this many
            simulated seconds after the first entered an empty buffer
            (default: the gateway's ``max_delay``).
        remote_cache_ttl: lifetime of gateway-tier cached remote
            decisions in simulated seconds; 0 (default) disables the
            cache — the PR 4 behaviour.

    A forwarded batch may take :data:`FORWARD_TTL` gateway hops; a
    target domain's buffer flushes once the gateway's ``max_batch``
    slots wait, in chunks of that size; gateway→gateway envelopes have
    the PDP tier's reply deadline.
    """

    def __init__(
        self,
        name: str,
        network,
        dispatcher: DecisionDispatcher,
        domain: str,
        resolve_domain: Optional[DomainResolver] = None,
        resolve_authoritative: Optional[DomainResolver] = None,
        forward_delay: Optional[float] = None,
        remote_cache_ttl: float = 0.0,
        **kwargs,
    ) -> None:
        if not domain:
            raise ValueError("a federated gateway needs a domain name")
        if forward_delay is not None and forward_delay < 0:
            raise ValueError(
                f"forward_delay must be >= 0, got {forward_delay}"
            )
        super().__init__(name, network, dispatcher, domain=domain, **kwargs)
        self.resolve_domain = resolve_domain
        self.resolve_authoritative = resolve_authoritative
        self.forward_delay = (
            forward_delay if forward_delay is not None else self._stage.max_delay
        )
        #: Remote domain -> that domain's gateway address (forwarding).
        self._peers: dict[str, str] = {}
        #: Origin domain -> its registered gateway address (serving side;
        #: doubles as the expected envelope signer on the secure channel).
        self._origins: dict[str, str] = {}
        #: Remote domain -> dispatcher over its replicas (naive baseline).
        self._direct: dict[str, DecisionDispatcher] = {}
        #: Remote domain -> the stage buffering its next forwarded envelope.
        self._forwards: dict[str, BatchingStage] = {}
        #: Gateway-tier cache of remote decisions, keyed by the bare
        #: request identity (cache_key) — shared across every PEP
        #: behind this gateway.
        self.remote_cache = DecisionCache(
            ttl=remote_cache_ttl, clock=lambda: self.now
        )
        self.requests_forwarded = 0
        self.forwarded_batches_sent = 0
        self.forwarded_batches_served = 0
        self.forwarded_decisions_returned = 0
        self.remote_decisions_delivered = 0
        self.remote_cache_hits = 0
        self.remote_cache_decisions_served = 0
        self.misroutes_detected = 0
        self.misroutes_reforwarded = 0
        self.recheck_failures = 0
        self.unknown_domain_denials = 0
        self.peer_failures = 0
        self.ttl_denials = 0
        self.origin_rejections = 0
        for action in (FORWARD_ACTION, SECURE_FORWARD_ACTION):
            self.on(action, self._handle_forward)

    # -- federation topology -------------------------------------------------------

    def add_peer(self, domain_name: str, gateway_address: str) -> None:
        """Register the gateway this domain forwards ``domain_name``'s
        traffic to."""
        if domain_name == self.domain:
            raise ValueError(f"{domain_name!r} is this gateway's own domain")
        self._peers[domain_name] = gateway_address
        if domain_name not in self._forwards:
            self._forwards[domain_name] = self._stage.downstream(
                self._stage.max_batch,
                self.forward_delay,
                drain=partial(self._drain_forward, domain_name),
            )

    def allow_origin(self, domain_name: str, gateway_address: str) -> None:
        """Accept forwarded batches originated by ``domain_name``.

        ``gateway_address`` pins the expected WS-Security signer on the
        secure channel.
        """
        if domain_name == self.domain:
            raise ValueError(f"{domain_name!r} is this gateway's own domain")
        self._origins[domain_name] = gateway_address

    def withdraw_peer(self, domain_name: str) -> None:
        """Stop enforcing ``domain_name``'s decisions (its DECISION trust
        edge was revoked).

        Requests it governs then fail safe like any unrouted domain's.
        Slots waiting in its forward buffer, and slots riding envelopes
        already in flight to it, fail safe now; a late reply to such an
        envelope is dropped unread.
        """
        peer = self._peers.pop(domain_name, None)
        if peer is not None:
            withdrawn = RpcFault(
                "federation:untrusted-peer",
                f"trust in domain {domain_name!r}'s decisions was withdrawn",
            )
            self._stage.fail(self._forwards[domain_name].take(), withdrawn)
            self._wire.abandon(peer, withdrawn)

    def withdraw_origin(self, domain_name: str) -> None:
        """Refuse ``domain_name``'s forwards from now on (its IDENTITY
        trust edge was revoked: a forward carries that domain's claims
        about its own subjects)."""
        self._origins.pop(domain_name, None)

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

    # -- classification ------------------------------------------------------------

    def _classify(
        self,
        requests: list[RequestContext],
        then: Callable[[list], None],
        authoritative: bool = False,
    ) -> None:
        """``then`` gets each request's governing domain — this one's
        where the resolver says None — in one list, once the resolver
        answers.

        ``authoritative`` is the *serving* side's view: inbound
        forwarded batches are classified with the authoritative
        resolver when one is configured, since accepting an origin's
        (possibly stale-cache-derived) routing at face value would let a
        directory transfer turn into wrong decisions instead of
        re-forwards.  A re-check that failed is handed over as its
        exception.
        """
        resolve = (authoritative and self.resolve_authoritative) or self.resolve_domain
        if resolve is None:
            then([self.domain] * len(requests))
        else:
            resolve(requests, lambda domains: then([d or self.domain for d in domains]))

    def _dispatch_slots(self, slots: list[Slot], then: Callable[[float], None]) -> None:
        """Partition one drawn super-batch by governing domain and send.

        Local slots ride the inherited PDP-tier path; remote ones wait
        in their peer's forward buffer (or go straight at a direct
        route).  Unknown domains fail safe immediately.  Envelopes
        serialise onto the same egress wire, so the paced drain waits
        for their summed transmission time.
        """
        self._classify(
            [slot.request for slot in slots],
            lambda domains: then(self._send_classified(slots, domains)),
        )

    def _send_classified(self, slots: list[Slot], domains: list) -> float:
        groups: dict[str, list[Slot]] = {}
        for slot, governing in zip(slots, domains, strict=True):
            groups.setdefault(governing, []).append(slot)
        tx_time = 0.0
        for target in sorted(groups, key=lambda t: (t != self.domain, t)):
            group = groups[target]
            if target == self.domain:
                tx_time += self._wire.send(group)
            elif target in self._peers:
                buffer = self._forwards[target]
                for slot in self._serve_cached_remote(group):
                    buffer.open(slot)
                buffer.trigger()
            elif target in self._direct:
                tx_time += self._wire.send(group, job=self._direct_job(target))
            else:
                denied = sum(len(slot.waiters) for slot in group)
                self.unknown_domain_denials += denied
                self.network.metrics.bump("federation.unknown_domain", denied)
                self._stage.fail(
                    group,
                    RpcFault(
                        "federation:unknown-domain",
                        f"no gateway or route for domain {target!r}",
                    ),
                )
        return tx_time

    def _drain_forward(self, target: str) -> None:
        """One peer's forward drain: chunks of its ``max_batch``, back to
        back and unpaced, until the buffer is empty."""
        buffer = self._forwards[target]
        while buffer.pending:
            chunk = buffer.take(
                list(islice(buffer.pending.values(), buffer.max_batch))
            )
            self._wire.send(chunk, job=self._forward_job(target))

    # -- the gateway-tier remote-decision cache ---------------------------------------

    def _serve_cached_remote(self, slots: list[Slot]) -> list[Slot]:
        """Serve cache hits locally; return the slots that must travel.

        A hit completes every waiting PEP entry of the slot through its
        owning queue (per-PEP enforcement, obligations and counters all
        apply, exactly as for a remote reply) without any cross-domain
        message.  Misses are returned for the forwarding buffer — their
        slots keep accumulating waiters while buffered, so the one
        forwarded query carries every PEP waiting on the identity.

        Delivery is deferred to a zero-delay event rather than run
        inline: a completion callback may submit the next request
        (closed loop) and flush straight back into this gateway, so a
        hit is answered once the drain step that found it has put the
        rest of its super-batch on the wire, not from inside its
        classification.  The slot stays in flight at the gateway stage
        until the deferred delivery fires, so late-joining waiters
        still attach and are served with it.
        """
        if not self.remote_cache.enabled:
            return slots
        misses: list[Slot] = []
        for slot in slots:
            statement = self.remote_cache.get(slot.key)
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
            )
        return misses

    def _deliver_cached_slot(self, slot: Slot, statement) -> None:
        # Counted at delivery time so waiters that joined the inflight
        # slot after the hit are included.
        self.remote_cache_decisions_served += len(slot.waiters)
        tracer = self.network.tracer
        if tracer.enabled:
            # No envelope left this gateway: the riding decisions' wire
            # phase collapses to zero, labelled as a gateway-cache hit.
            tracer.cache_hit(self, [slot], cache="gateway-remote")
        self._stage.resolve(slot, statement)

    def _cache_remote_statements(
        self, slots: list[Slot], statements: Sequence
    ) -> None:
        """Retain definitive remote decisions for the cache TTL.

        Indeterminate / NotApplicable statements are fail-safe or
        routing artefacts, not policy outcomes — caching them would pin
        a transient peer failure onto the whole PEP fleet for a TTL.
        """
        if not self.remote_cache.enabled:
            return
        for slot, statement in zip(slots, statements, strict=False):
            if statement.response.decision.is_definitive:
                self.remote_cache.admit(slot.key, statement)

    # -- the forwarding wire (jobs for the shared core) -----------------------------

    def _forward_job(self, target: str, ttl: Optional[int] = None) -> WireJob:
        peer = self._peers[target]
        hops = FORWARD_TTL if ttl is None else ttl

        def select(exclude: Sequence[str]) -> Optional[str]:
            return None if peer in exclude else peer

        def encode(items: list[Slot], sender: Component) -> tuple[str, str, str]:
            batch = batch_query(items, sender)
            forwarded = ForwardedBatchQuery(
                batch=batch,
                origin_domain=self.domain,
                origin_gateway=self.name,
                ttl=hops,
            )
            return batch.batch_id, FORWARD_ACTION, forwarded.to_xml()

        return WireJob(
            select=select,
            # The channel pins the reply's signer to the envelope's
            # destination, which for a forward job is the peer gateway.
            deliver=self._deliver_remote_slots,
            fail=self._fail_forwarded_slots,
            timeout=DEFAULT_TIMEOUT,
            channel=self.channel,
            encode=encode,
            on_sent=self._note_forward,
        )

    def _direct_job(self, target: str) -> WireJob:
        dispatcher = self._direct[target]
        return WireJob(
            select=dispatcher.select,
            deliver=self._deliver_remote_slots,
            fail=self._stage.fail,
            timeout=DEFAULT_TIMEOUT,
            channel=self.channel,
            dispatcher=dispatcher,
        )

    def _serving_job(self, target: str, ttl: int, deliver, fail) -> WireJob:
        """How (part of) an inbound forwarded batch travels on: this
        domain's own PDP-tier job or an onward forward, either answering
        the serving context."""
        if target == self.domain:
            return replace(
                self._wire.job, deliver=deliver, fail=fail, on_sent=None
            )
        return replace(
            self._forward_job(target, ttl), deliver=deliver, fail=fail
        )

    def _note_forward(self, items: list) -> None:
        self.forwarded_batches_sent += 1
        self.requests_forwarded += len(items)

    def _deliver_remote_slots(
        self, slots: list[Slot], statements: Sequence
    ) -> None:
        self.remote_decisions_delivered += sum(
            len(slot.waiters) for slot in slots
        )
        self._cache_remote_statements(slots, statements)
        self._stage.deliver(slots, statements)

    def _fail_forwarded_slots(self, slots: list[Slot], exc: Exception) -> None:
        denied = sum(len(slot.waiters) for slot in slots)
        self.peer_failures += denied
        self.network.metrics.bump("federation.peer_unreachable", denied)
        self._stage.fail(slots, exc)

    # -- the serving side ------------------------------------------------------------

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
            forwarded = ForwardedBatchQuery.from_xml(body)
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
            f"pending={self.pending_count}, inflight={self.inflight_count})"
        )
