"""Policy Decision Point: evaluation service over the network.

"Evaluates access request decision queries issued by enforcement points.
PDP has access to the set of policies and evaluates access requests
against applicable policies" (paper §2.2).  This component wraps the
:class:`~repro.xacml.engine.PdpEngine` with everything the paper's
architecture adds around it:

* **policy retrieval** from a PAP, with a TTL'd policy cache and an
  optional cheap revision probe (the caching the paper proposes for
  decision points, experiment E6).  The refresh is *single-flight and
  notice-driven*: the query that finds the cache stale fetches, every
  query that reaches this PDP while that fetch is on the wire is parked
  (whole message, before decode) and re-dispatched in arrival order
  when it lands, and a change notice that already named a newer
  revision is the probe's answer.  Parking is sound because it only
  ever makes an answer *later and fresher*: a parked query checks
  freshness for itself when released, so it is decided under the bundle
  a fetch of its own would have brought, or a newer one.  It costs one
  deque append per parked query and buys one bundle per policy change
  per PDP whatever the load (experiment E29a), where every stale query
  used to probe and fetch for itself, nested inside the one already
  waiting;
* **PIP attribute resolution** over the network during evaluation;
* **mutually authenticated queries**: signed queries are verified before
  evaluation — "decision points should only reveal decisions on authentic
  access request decision queries.  Otherwise, they can leak information
  about access control policies" (paper §3.2) — and responses are signed
  so PEPs can verify their origin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..observability.tracing import TRACE_HEADER, TraceContext
from ..simnet.message import Message
from ..saml.xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from ..simnet.network import Network
from ..wsvc.ws_security import WsSecurityError
from ..xacml.attributes import AttributeValue, Category, DataType
from ..xacml.context import RequestContext
from ..xacml.engine import EngineResponse, PdpEngine, PolicyStore
from .base import Component, ComponentIdentity, RpcFault, RpcTimeout
from .channel import (
    DecisionChannel,
    base_action,
    is_secure_action,
    secure_action,
)
from .pap import parse_bundle, parse_change_notice, parse_revision
from .pip import parse_pip_response, serialize_pip_query
from .placement import AttributePartition, AttributeResolver, PlacementSpec

QUERY_ACTION = "xacml.request"
BATCH_QUERY_ACTION = "xacml.request.batch"
#: Replica→replica reforward of misrouted batch slots.  The endpoint
#: evaluates locally and never forwards again (one-hop TTL), so stale
#: routing views cannot create forwarding loops.
OWNED_BATCH_QUERY_ACTION = "xacml.request.batch.owned"
SECURE_QUERY_ACTION = secure_action(QUERY_ACTION)
SECURE_BATCH_QUERY_ACTION = secure_action(BATCH_QUERY_ACTION)

#: Sample series fed with per-decision candidate-set sizes (index
#: selectivity, per replica via the engine's evaluation stats).
CANDIDATE_SET_SERIES = "pdp.candidate_set_size"

#: Sample series fed with a shard's materialised key count at each
#: rebalance (per-replica state cardinality, E19).
SHARD_CARDINALITY_SERIES = "pdp.shard_cardinality"


@dataclass
class PdpConfig:
    """Tunables for a decision point."""

    #: How long fetched policies stay fresh (simulated seconds); 0 means
    #: re-fetch on every decision (the no-cache baseline of E6).
    policy_cache_ttl: float = 30.0
    #: "probe" asks the PAP for its revision first and only re-fetches the
    #: bundle on change; "full" always re-fetches when stale.
    refresh_mode: str = "probe"
    #: Require WS-Security-signed queries (mutual authentication).
    require_signed_queries: bool = False
    #: Sign responses when an identity is configured.
    sign_responses: bool = True
    #: Service-time model (simulated seconds), both 0 by default so the
    #: PDP answers instantly like the seed.  ``envelope_overhead`` is
    #: paid once per inbound query message (parse + WS-Security work);
    #: ``decision_service_time`` once per request context evaluated.
    #: With either non-zero the PDP becomes a FIFO server: replies queue
    #: behind earlier work, which is what makes batching (fewer
    #: envelopes) and replication (more servers) measurable as
    #: throughput, not just message counts (experiments E16/E17).
    envelope_overhead: float = 0.0
    decision_service_time: float = 0.0
    #: Evaluation workers inside this one replica.  Envelope work (the
    #: single-threaded protocol front end: parsing, WS-Security) stays
    #: serialised; the envelope's decisions are spread across the
    #: workers, whose makespan is ``ceil(n / workers)`` decision times —
    #: a lone decision still costs one full decision time.  This makes
    #: worker-level scaling (parallelism inside a replica) and
    #: replica-level scaling (more servers behind a dispatcher)
    #: separately measurable (E17).
    worker_count: int = 1
    #: Placement contract of a sharded tier (None = unsharded, the
    #: default).  When set, this replica owns only its hash range of the
    #: placement ring: its attribute partition materialises owned keys
    #: lazily, misrouted batch slots are reforwarded to their owner, and
    #: :meth:`PolicyDecisionPoint.rebalance_placement` implements the
    #: join/leave story.  Replicas and client-side hash routing must
    #: share the same spec object (or synchronised copies).
    placement: Optional[PlacementSpec] = None
    #: RPC deadline for replica→replica reforwards of misrouted slots.
    forward_timeout: float = 2.0

    def __post_init__(self) -> None:
        if self.worker_count < 1:
            raise ValueError(
                f"worker_count must be >= 1, got {self.worker_count}"
            )
        if self.placement is not None and not isinstance(
            self.placement, PlacementSpec
        ):
            raise ValueError(
                f"placement must be a PlacementSpec or None, got "
                f"{type(self.placement).__name__}"
            )
        if self.forward_timeout <= 0:
            raise ValueError(
                f"forward_timeout must be > 0, got {self.forward_timeout}"
            )


class PolicyDecisionPoint(Component):
    """Network-attached PDP."""

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        pap_address: Optional[str] = None,
        pip_addresses: Optional[list[str]] = None,
        config: Optional[PdpConfig] = None,
        attribute_resolver: Optional[AttributeResolver] = None,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.config = config if config is not None else PdpConfig()
        self.engine = PdpEngine(PolicyStore())
        self.pap_address = pap_address
        self.pip_addresses = list(pip_addresses or [])
        #: This replica's owned slice of subject/resource attribute
        #: state; None on an unsharded replica.  With a placement but no
        #: resolver the partition is preload-only.
        self.partition: Optional[AttributePartition] = None
        #: Authoritative attribute source; also the unsharded fallback
        #: finder when no placement is configured.
        self.attribute_resolver = attribute_resolver
        if self.config.placement is not None:
            self.partition = AttributePartition(
                owner=name,
                spec=self.config.placement,
                resolver=attribute_resolver,
            )
        self._policies_fetched_at: Optional[float] = None
        self._cached_revision: Optional[int] = None
        #: Highest revision a change notice has named.  A bundle or a
        #: probe answer older than it was overtaken on the wire by the
        #: notice of a later change and must not mark the cache fresh.
        self._announced_revision = 0
        #: Single-flight guard of the policy refresh: set when a refresh
        #: goes on the wire, cleared when the queries that arrived
        #: meanwhile (``_parked``: whole messages, arrival order) are
        #: released.  Volatile: a crash drops them.
        self._parking = False
        self._parked: deque[Message] = deque()
        self.decisions_made = 0
        self.pip_queries_sent = 0
        self.policy_fetches = 0
        self.revision_probes = 0
        self.parked_queries = 0
        self.rejected_queries = 0
        self.batch_queries_served = 0
        self.batched_decisions = 0
        self.reforwarded_batches = 0
        self.owned_batches_served = 0
        self._busy_until = 0.0
        #: Serves every endpoint; as a client (replica→replica
        #: reforwards) a signed-queries-only tier signs its own.  A
        #: replica without an identity can still refuse unsigned
        #: queries, it just has nothing to sign reforwards with.
        self.channel = DecisionChannel(
            self,
            secure=self.config.require_signed_queries and identity is not None,
            role="pdp",
        )
        for action in self._ENDPOINTS:
            self.on(action, self._serve_query)
            self.on(secure_action(action), self._serve_query)

    # -- policy management ------------------------------------------------------

    def add_local_policy(self, element) -> None:
        """Install a policy directly (bypasses the PAP; tests/local use)."""
        self.engine.store.add(element)

    def _ensure_policies(self) -> None:
        """Refresh the policy store from the PAP when the cache is stale.

        Single flight: the query that finds the cache stale runs the
        refresh, and while its blocking call drives the event loop every
        other query that reaches this PDP is parked by
        :meth:`_serve_query` instead of starting a probe and a fetch of
        its own for the same revision.  A failed refresh is this
        component's fault (``pdp:policy-unavailable``), for the query
        that ran it and for those parked behind it; the cache stays
        stale, so the next query tries again.
        """
        if self.pap_address is None:
            return
        fresh = (
            self._policies_fetched_at is not None
            and self.config.policy_cache_ttl > 0
            and self.now - self._policies_fetched_at < self.config.policy_cache_ttl
        )
        if fresh:
            return
        fault: Optional[RpcFault] = None
        self._parking = True
        try:
            self._refresh_policies()
        except (RpcTimeout, RpcFault) as exc:
            fault = RpcFault("pdp:policy-unavailable", f"policy refresh failed: {exc}")
            raise fault from exc
        finally:
            if self._parked:
                # After this query's own reply: replies leave in arrival order.
                self.network.loop.schedule(
                    0.0, lambda: self._release_parked(fault), label="pdp-release"
                )
            else:
                self._parking = False

    def _refresh_policies(self) -> None:
        """The one place that asks the PAP for policy (probe, then bundle).

        A notice that already named a revision newer than the bundle
        held is the probe's answer; only a TTL expiry with no such
        notice pays the ``pap.revision`` round trip.
        """
        if (
            self.config.refresh_mode == "probe"
            and self._cached_revision is not None
            and self._announced_revision <= self._cached_revision
        ):
            reply = self.call(self.pap_address, "pap.revision", "<PapQuery/>")
            self.revision_probes += 1
            revision = parse_revision(str(reply.payload))
            if revision == self._cached_revision and revision >= self._announced_revision:
                self._policies_fetched_at = self.now
                return
        reply = self.call(self.pap_address, "pap.retrieve", "<PapQuery scope=\"all\"/>")
        self.policy_fetches += 1
        elements, revision = parse_bundle(str(reply.payload))
        store = PolicyStore()
        for element in elements:
            store.add(element)
        self.engine.store = store
        self._cached_revision = revision
        overtaken = revision < self._announced_revision
        self._policies_fetched_at = None if overtaken else self.now

    def _release_parked(self, fault: Optional[RpcFault]) -> None:
        """Let the parked queries back in, in arrival order.

        Each re-enters :meth:`_dispatch`, so it is authenticated and
        checks freshness like any other query: if the bundle that just
        landed was itself overtaken, the first one becomes the next
        single flight and the rest wait for *its* release.  After a
        failed refresh they all get its fault instead — one timeout for
        the lot, not one each in sequence.
        """
        self._parking = False
        while self._parked and not self._parking:
            message = self._parked.popleft()
            if fault is None:
                self._dispatch(message)
            else:
                self._reply_fault(message, fault)

    def crash(self) -> None:
        """Fail-stop: parked queries are volatile state and die with the
        process; their callers time out and fail safe."""
        super().crash()
        self._parked.clear()

    def invalidate_policy_cache(self) -> None:
        self._policies_fetched_at = None

    def subscribe_to_policy_changes(self) -> None:
        """Subscribe to the configured PAP's change notifications.

        On each change the policy cache is invalidated so the next
        decision re-fetches — revocations propagate within one decision
        instead of one TTL.
        """
        if self.pap_address is None:
            raise ValueError(f"PDP {self.name} has no PAP to subscribe to")
        self.on("pap.changed", self._handle_policy_changed)
        self.call(self.pap_address, "pap.subscribe", "<Subscribe/>")

    def _handle_policy_changed(self, message: Message) -> None:
        revision = parse_change_notice(str(message.payload))
        if revision is not None:
            if revision <= (self._cached_revision or 0):
                return None  # the bundle held already includes this change
            self._announced_revision = max(self._announced_revision, revision)
        self.invalidate_policy_cache()
        return None

    # -- attribute resolution ------------------------------------------------------

    def _attribute_finder_for(self, request: RequestContext):
        partition = self.partition
        resolver = self.attribute_resolver
        if partition is None and resolver is None and not self.pip_addresses:
            return None
        shard_category = {
            "subject": Category.SUBJECT,
            "resource": Category.RESOURCE,
        }.get(partition.spec.shard_by) if partition is not None else None

        def finder(
            category: Category, attribute_id: str, data_type: DataType
        ) -> list[AttributeValue]:
            if category is Category.SUBJECT:
                about = request.subject_id or ""
            elif category is Category.RESOURCE:
                about = request.resource_id or ""
            else:
                about = ""
            if about:
                # Sharded: the owned partition answers (faulting state
                # in from the authoritative resolver on first touch).
                if partition is not None and category is shard_category:
                    values = partition.lookup(about, attribute_id, data_type)
                    if values:
                        return values
                elif resolver is not None:
                    attributes = resolver(about) or {}
                    values = [
                        value
                        for value in attributes.get(attribute_id, [])
                        if value.data_type is data_type
                    ]
                    if values:
                        return values
            query = serialize_pip_query(category, attribute_id, about, data_type)
            for pip_address in self.pip_addresses:
                try:
                    reply = self.call(pip_address, "pip.query", query)
                except (RpcTimeout, RpcFault):
                    continue
                self.pip_queries_sent += 1
                values = parse_pip_response(str(reply.payload))
                if values:
                    return values
            return []

        return finder

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, request: RequestContext) -> EngineResponse:
        """Evaluate locally (the engine call every query path funnels into)."""
        self._ensure_policies()
        self.engine.attribute_finder = self._attribute_finder_for(request)
        self.decisions_made += 1
        return self.engine.evaluate(request, current_time=self.now)

    def evaluate_batch(self, requests: list[RequestContext]) -> list[EngineResponse]:
        """Evaluate N requests with one policy refresh and one store snapshot.

        The whole point of the batched decision fabric at this layer:
        :meth:`_ensure_policies` (with its potential PAP round-trip) runs
        once per batch instead of once per request, and the engine shares
        target-index lookups across identical request triples.
        """
        self._ensure_policies()
        self.decisions_made += len(requests)
        self.batch_queries_served += 1
        self.batched_decisions += len(requests)
        responses = self.engine.evaluate_batch(
            requests,
            current_time=self.now,
            finder_for=self._attribute_finder_for,
        )
        metrics = self.network.metrics
        for engine_response in responses:
            metrics.record_sample(
                CANDIDATE_SET_SERIES,
                engine_response.stats.candidate_set_size,
            )
        return responses

    # -- service-time model -------------------------------------------------------------

    def _reply_after_service(
        self, message: Message, payload, decisions: int, batch_id: str = ""
    ):
        """Return the reply now, or queue it behind this PDP's busy time.

        With the service-time model disabled (the default) the payload is
        returned and the base class replies immediately — seed behaviour.
        Otherwise the PDP is a FIFO server: the reply is scheduled for
        when the accumulated busy period ends, so concurrent load
        exhibits real queueing delay (measured by experiments E16/E17).
        Envelope overhead is serialised; the envelope's decisions are
        spread over ``worker_count`` workers, whose makespan is
        ``ceil(decisions / workers)`` decision service times.
        """
        cost = self.config.envelope_overhead
        if decisions:
            cost += (
                -(-decisions // self.config.worker_count)
                * self.config.decision_service_time
            )
        if cost <= 0:
            self._trace_service(message, batch_id, decisions, 0.0, 0.0)
            return payload
        start = max(self._busy_until, self.now)
        self._busy_until = start + cost
        self._trace_service(
            message, batch_id, decisions, start - self.now, cost
        )
        reply = message.reply(kind=f"{message.kind}:response", payload=payload)

        def send_reply() -> None:
            if self.alive:
                self.node.send(reply)

        self.network.loop.schedule(
            self._busy_until - self.now, send_reply, label="pdp-service"
        )
        return None

    def _trace_service(
        self,
        message: Message,
        batch_id: str,
        decisions: int,
        queued: float,
        cost: float,
    ) -> None:
        """Record this envelope's service span, parented under the
        sender's envelope span via the message's trace header.

        The span covers arrival → reply emission; its attributes split
        that into busy-wait (``queued``), per-envelope parse/signature
        work (``overhead``) and the worker-pool decision makespan
        (``eval``) — the figures the latency decomposition joins on.
        """
        tracer = self.network.tracer
        if not tracer.enabled:
            return
        context = TraceContext.parse(message.headers.get(TRACE_HEADER))
        overhead = min(self.config.envelope_overhead, cost) if cost else 0.0
        tracer.emit(
            "pdp.service",
            self.name,
            self.domain,
            start=self.now,
            end=self.now + queued + cost,
            trace_id=context.trace_id if context else None,
            parent_id=context.span_id if context else None,
            batch_id=batch_id,
            decisions=decisions,
            queued=queued,
            overhead=overhead,
            eval=max(cost - overhead, 0.0),
            workers=self.config.worker_count,
        )

    # -- the serving pipeline -------------------------------------------------------------

    def _serve_query(self, message: Message):
        """Every query endpoint: authenticate → decode → answer → sign.

        The endpoints differ only in how the body decodes and which
        method answers it (:attr:`_ENDPOINTS`); whether the query may be
        answered at all, and how the reply is protected, is decided
        here once, so no endpoint can skip the signature policy, and a
        body that does not decode is answered with a
        ``pdp:malformed-query`` fault, never raised.  One
        signature is verified and one made per envelope however many
        decisions ride it — the fabric's amortisation on the
        authenticated channel.

        While a policy refresh is on the wire the query is parked
        untouched instead; :meth:`_release_parked` brings it back here.
        """
        if self._parking:
            self._parked.append(message)
            self.parked_queries += 1
            return None
        if self.config.require_signed_queries and not is_secure_action(
            message.kind
        ):
            self.rejected_queries += 1
            raise RpcFault(
                "pdp:authentication-required",
                "this PDP only answers signed queries",
            )
        try:
            body, _ = self.channel.open_request(message)
        except WsSecurityError as exc:
            self.rejected_queries += 1
            raise RpcFault("pdp:authentication-failed", str(exc)) from exc
        decode, answer = self._ENDPOINTS[base_action(message.kind)]
        try:
            query = decode(body)
        except ValueError as exc:  # ParseError is one
            self.rejected_queries += 1
            raise RpcFault("pdp:malformed-query", str(exc)) from exc
        statement, decisions, exchange_id = answer(self, query)
        reply = self.channel.seal_reply(
            message, statement.to_xml(), sign=self.config.sign_responses
        )
        return self._reply_after_service(
            message, reply, decisions=decisions, batch_id=exchange_id
        )

    def _answer_query(self, query: XacmlAuthzDecisionQuery):
        statement = self._statement_for(query, self.evaluate(query.request))
        return statement, 1, query.query_id

    def _answer_routed_batch(self, batch: XacmlAuthzDecisionBatchQuery):
        return self._answer_batch(batch), len(batch.queries), batch.batch_id

    def _answer_owned_batch(self, batch: XacmlAuthzDecisionBatchQuery):
        """Answer a peer replica's reforward of slots this replica owns.

        Never forwards again even if the local view disagrees (one-hop
        TTL — two replicas with divergent rings must not bounce a slot
        forever); evaluating locally is always correct because the
        attribute resolver is authoritative.
        """
        self.owned_batches_served += 1
        answer = self._answer_batch(batch, allow_forward=False)
        return answer, len(batch.queries), batch.batch_id

    def _statement_for(
        self, query: XacmlAuthzDecisionQuery, engine_response: EngineResponse
    ) -> XacmlAuthzDecisionStatement:
        return XacmlAuthzDecisionStatement(
            response=engine_response.response,
            in_response_to=query.query_id,
            issuer=self.name,
            issue_instant=self.now,
            request_echo=query.request if query.return_context else None,
        )

    def _answer_batch(
        self, batch: XacmlAuthzDecisionBatchQuery, allow_forward: bool = True
    ) -> XacmlAuthzDecisionBatchStatement:
        placement = self.config.placement
        if placement is None or not allow_forward:
            engine_responses = self.evaluate_batch(
                [query.request for query in batch.queries]
            )
            statements = tuple(
                self._statement_for(query, engine_response)
                for query, engine_response in zip(
                    batch.queries, engine_responses, strict=True
                )
            )
        else:
            statements = self._answer_batch_sharded(batch, placement)
        return XacmlAuthzDecisionBatchStatement(
            statements=statements,
            in_response_to=batch.batch_id,
            issuer=self.name,
            issue_instant=self.now,
        )

    def _answer_batch_sharded(
        self, batch: XacmlAuthzDecisionBatchQuery, placement: PlacementSpec
    ) -> tuple[XacmlAuthzDecisionStatement, ...]:
        """Answer a batch on a sharded replica: own, reforward, or fall back.

        Slots whose placement key this replica owns evaluate locally.
        Misrouted slots — a client routed with a stale ring view, or a
        failover landed the envelope on a non-owner — are reforwarded to
        their owning replica in one nested call per owner and the
        owner's statements are spliced back in query order.  If the
        owner is unreachable (or replies malformed) the slots are
        evaluated locally from the authoritative resolver: correctness
        is preserved, only placement is violated, and the partition does
        not retain the foreign keys.  All three paths are counted
        (``placement.misrouted`` / ``placement.reforwarded`` /
        ``placement.reforward_fallback``).
        """
        owned: list[tuple[int, XacmlAuthzDecisionQuery]] = []
        misrouted: dict[str, list[tuple[int, XacmlAuthzDecisionQuery]]] = {}
        for index, query in enumerate(batch.queries):
            owner = placement.owner_of(query.request)
            if owner == self.name:
                owned.append((index, query))
            else:
                misrouted.setdefault(owner, []).append((index, query))
        statements: list[Optional[XacmlAuthzDecisionStatement]] = [
            None
        ] * len(batch.queries)
        if owned:
            engine_responses = self.evaluate_batch(
                [query.request for _, query in owned]
            )
            for (index, query), engine_response in zip(
                owned, engine_responses, strict=True
            ):
                statements[index] = self._statement_for(query, engine_response)
        metrics = self.network.metrics
        for owner, group in misrouted.items():
            metrics.bump("placement.misrouted", len(group))
            sub_batch = XacmlAuthzDecisionBatchQuery(
                queries=tuple(query for _, query in group),
                issuer=self.name,
                issue_instant=self.now,
            )
            answers = None
            action, payload = self.channel.seal(
                OWNED_BATCH_QUERY_ACTION, sub_batch.to_xml()
            )
            try:
                reply = self.call(
                    owner, action, payload, timeout=self.config.forward_timeout
                )
                answers = self.channel.open_batch_reply(
                    reply, owner, sub_batch.batch_id, len(group)
                ).statements
            except (RpcTimeout, RpcFault, WsSecurityError):
                answers = None
            if answers is not None:
                self.reforwarded_batches += 1
                metrics.bump("placement.reforwarded", len(group))
                for (index, _), statement in zip(group, answers, strict=True):
                    statements[index] = statement
                continue
            metrics.bump("placement.reforward_fallback", len(group))
            engine_responses = self.evaluate_batch(
                [query.request for _, query in group]
            )
            for (index, query), engine_response in zip(
                group, engine_responses, strict=True
            ):
                statements[index] = self._statement_for(query, engine_response)
        return tuple(statements)

    # -- placement lifecycle ------------------------------------------------------------

    def rebalance_placement(self) -> int:
        """Realign this replica's partition with the (changed) ring.

        Called on every replica after :meth:`~repro.components.
        placement.PlacementMap.add_replica` / ``remove_replica`` on the
        authoritative ring.  Evicts entries whose key range moved away
        (the new owner repopulates them on demand from the shared
        resolver) and returns how many moved; the tier-wide sum is the
        rebalance cost counted as ``placement.moved_keys``.
        """
        if self.partition is None:
            return 0
        moved = self.partition.rebalance()
        metrics = self.network.metrics
        metrics.bump("placement.moved_keys", moved)
        metrics.record_sample(
            SHARD_CARDINALITY_SERIES, self.partition.cardinality
        )
        return moved

    def shard_stats(self) -> dict:
        """Per-replica state figures E19 reports (cardinality and skew)."""
        stats: dict = {
            "replica": self.name,
            "store": self.engine.store.shard_stats(),
        }
        if self.partition is not None:
            partition = self.partition.stats
            stats.update(
                cardinality=self.partition.cardinality,
                faults=partition.faults,
                hits=partition.hits,
                unowned_lookups=partition.unowned_lookups,
                evicted=partition.evicted,
            )
        return stats

    #: base action → (decode the query body, answer it).  Each is served
    #: plain and under its ``.secure`` twin by :meth:`_serve_query`.
    _ENDPOINTS = {
        QUERY_ACTION: (XacmlAuthzDecisionQuery.from_xml, _answer_query),
        BATCH_QUERY_ACTION: (
            XacmlAuthzDecisionBatchQuery.from_xml,
            _answer_routed_batch,
        ),
        OWNED_BATCH_QUERY_ACTION: (
            XacmlAuthzDecisionBatchQuery.from_xml,
            _answer_owned_batch,
        ),
    }
