"""Policy Decision Point: evaluation service over the network.

"Evaluates access request decision queries issued by enforcement points.
PDP has access to the set of policies and evaluates access requests
against applicable policies" (paper §2.2).  This component wraps the
:class:`~repro.xacml.engine.PdpEngine` with everything the paper's
architecture adds around it:

* **policy retrieval** from a PAP, with a TTL'd policy cache and an
  optional cheap revision probe (the caching the paper proposes for
  decision points, experiment E6).  The refresh is *single-flight and
  notice-driven*: the query that finds the cache stale asks the PAP and
  waits for the answer as a continuation, every query that reaches this
  PDP while that ask is on the wire is parked (whole message, before
  decode) and re-dispatched in arrival order when it lands, and a change
  notice that already named a newer revision is the probe's answer.
  Parking is sound because it only ever makes an answer *later and
  fresher*: a parked query checks freshness for itself when released,
  so it is decided under the bundle a fetch of its own would have
  brought, or a newer one.  It costs one deque append per parked query
  and buys one bundle per policy change per PDP whatever the load
  (experiment E29a);
* **PIP attribute resolution** over the network during evaluation.  A
  PDP never waits inside a query: an evaluation pass that needs an
  attribute only a PIP can supply records the miss, the PIPs are asked
  for it, and the request is evaluated again once the answer lands —
  under the same store snapshot and instant.  When no PIP answers at
  all the request is Indeterminate (``missing-attribute``), never
  decided as if the attribute were absent;
* **mutually authenticated queries**: signed queries are verified before
  evaluation — "decision points should only reveal decisions on authentic
  access request decision queries.  Otherwise, they can leak information
  about access control policies" (paper §3.2) — and responses are signed
  so PEPs can verify their origin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

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
from ..xacml.context import (
    Decision,
    RequestContext,
    ResponseContext,
    Status,
    StatusCode,
)
from ..xacml.engine import EngineResponse, PdpEngine, PolicyStore
from ..xacml.expressions import AttributeFinder
from .base import Component, ComponentIdentity, RpcFault
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
    #: lazily, misrouted batch slots are reforwarded to their owner
    #: (under the default RPC deadline), and
    #: :meth:`PolicyDecisionPoint.rebalance_placement` implements the
    #: join/leave story.  Replicas and client-side hash routing must
    #: share the same spec object (or synchronised copies).
    placement: Optional[PlacementSpec] = None

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
        #: state; None on an unsharded replica.
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
        #: Single-flight guard of the policy refresh: while a refresh is
        #: on the wire (and until its release runs), the queries that
        #: reach this PDP, whole messages in arrival order; None when no
        #: refresh is.  Volatile: a crash drops them.
        self._parked: Optional[deque[Message]] = None
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

    def _ensure_policies(self, message: Message, then: Callable[[], None]) -> None:
        """Run ``then`` once the policy cache is fresh: now, or when the
        refresh this starts lands.

        Single flight: from the moment the refresh goes on the wire,
        every other query that reaches this PDP is parked by
        :meth:`_serve_query` instead of starting a probe and a fetch of
        its own for the same revision.  When it lands, ``then`` runs
        first — it answers ``message``, the query that found the cache
        stale — and the parked queries are released after it.  A failed
        refresh is this component's fault (``pdp:policy-unavailable``),
        for ``message`` and for every query parked behind it; the cache
        stays stale, so the next query tries again.
        """
        if self.pap_address is None or (
            self._policies_fetched_at is not None
            and self.config.policy_cache_ttl > 0
            and self.now - self._policies_fetched_at < self.config.policy_cache_ttl
        ):
            then()
            return
        self._parked = deque()

        def landed(fault: Optional[RpcFault]) -> None:
            if self._parked:
                # After this query's own reply: replies leave in arrival order.
                self.network.loop.schedule(0.0, partial(self._release_parked, fault))
            else:
                self._parked = None
            if fault is None:
                then()
            else:
                self.respond(message, fault)

        self._refresh_policies(landed)

    def _refresh_policies(self, done: Callable[[Optional[RpcFault]], None]) -> None:
        """The one place that asks the PAP for policy (probe, then bundle).

        A notice that already named a revision newer than the bundle
        held is the probe's answer; only a TTL expiry with no such
        notice pays the ``pap.revision`` round trip.  ``done`` gets None
        once the cache is fresh, or the fault that failed the refresh.
        """

        def failed(exc: Exception) -> None:
            done(RpcFault("pdp:policy-unavailable", f"policy refresh failed: {exc}"))

        def fetch() -> None:
            self.ask(self.pap_address, "pap.retrieve", '<PapQuery scope="all"/>', fetched, failed)

        def fetched(reply: Message) -> None:
            self.policy_fetches += 1
            elements, revision = parse_bundle(str(reply.payload))
            store = PolicyStore()
            for element in elements:
                store.add(element)
            self.engine.store = store
            self._cached_revision = revision
            overtaken = revision < self._announced_revision
            self._policies_fetched_at = None if overtaken else self.now
            done(None)

        def probed(reply: Message) -> None:
            self.revision_probes += 1
            revision = parse_revision(str(reply.payload))
            if revision == self._cached_revision and revision >= self._announced_revision:
                self._policies_fetched_at = self.now
                done(None)
            else:
                fetch()

        if (
            self.config.refresh_mode == "probe"
            and self._cached_revision is not None
            and self._announced_revision <= self._cached_revision
        ):
            self.ask(self.pap_address, "pap.revision", "<PapQuery/>", probed, failed)
        else:
            fetch()

    def _release_parked(self, fault: Optional[RpcFault]) -> None:
        """Let the parked queries back in, in arrival order.

        Each re-enters :meth:`_dispatch`, so it is authenticated and
        checks freshness like any other query: if the bundle that just
        landed was itself overtaken, the first one starts the next
        single flight and the rest wait for *its* release.  After a
        failed refresh they all get its fault instead — one timeout for
        the lot, not one each in sequence.  (After a crash there is
        nothing to release: the parked queries died with it.)
        """
        parked, self._parked = self._parked, None
        while parked and self._parked is None:
            message = parked.popleft()
            if fault is None:
                self._dispatch(message)
            else:
                self.respond(message, fault)
        if parked:  # a released query started the next refresh
            self._parked.extend(parked)

    def _crashed(self) -> None:
        """Fail-stop: parked queries are volatile state and die with the
        process, like the asks; their callers time out and fail safe."""
        super()._crashed()
        self._parked = None

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

    def _ask_pips(self, query: str, done: Callable) -> None:
        """Ask the PIPs, in order, for one miss: a timeout, a fault or
        an empty answer moves on to the next address.  ``done`` gets the
        first values found, ``[]`` when some PIP answered with none, and
        None when none answered at all."""
        answered = False

        def ask_pip(address: str, settled: Callable[[], None]) -> None:
            def got(reply: Message) -> None:
                nonlocal answered
                answered = True
                self.pip_queries_sent += 1
                values = parse_pip_response(str(reply.payload))
                if values:
                    done(values)
                else:
                    settled()

            self.ask(address, "pip.query", query, got, lambda _: settled())

        self.in_turn(self.pip_addresses, ask_pip, lambda: done([] if answered else None))

    # -- evaluation ------------------------------------------------------------------

    def _decide(self, queries: Sequence[XacmlAuthzDecisionQuery], then: Callable) -> None:
        """Decide ``queries`` in order; ``then`` gets their statements.

        With an attribute source (a partition, a resolver or PIPs) a
        :class:`_Decision` runs, which may ask the PIPs between passes.
        Without one no pass can miss, so the queries are decided by one
        engine call, here and now.
        """
        if self.partition or self.attribute_resolver or self.pip_addresses:
            _Decision(self, queries, then).run()
            return
        self.decisions_made += len(queries)
        responses = self.engine.evaluate_batch(
            [query.request for query in queries], current_time=self.now
        )
        then(self._statements(queries, responses))

    def _decide_batch(self, queries: Sequence[XacmlAuthzDecisionQuery], then: Callable) -> None:
        """Decide a batch's queries, counted as one batch evaluation."""
        self.batch_queries_served += 1
        self.batched_decisions += len(queries)
        self._decide(queries, then)

    # -- service-time model -------------------------------------------------------------

    def _reply_after_service(
        self, message: Message, statement, decisions: int, batch_id: str
    ) -> None:
        """Seal ``statement`` as the reply to ``message`` (one signature
        per envelope, however many decisions ride it) and send it now,
        or queue it behind this PDP's busy time.

        With the service-time model disabled (the default) the reply
        leaves at once — seed behaviour.  Otherwise the PDP is a FIFO
        server: the reply is scheduled for when the accumulated busy
        period ends, so concurrent load exhibits real queueing delay
        (measured by experiments E16/E17).  Envelope overhead is
        serialised; the envelope's decisions are spread over
        ``worker_count`` workers, whose makespan is
        ``ceil(decisions / workers)`` decision service times.
        """
        cost = self.config.envelope_overhead
        if decisions:
            cost += (
                -(-decisions // self.config.worker_count)
                * self.config.decision_service_time
            )
        payload = self.channel.seal_reply(
            message, statement.to_xml(), sign=self.config.sign_responses
        )
        traced = self.network.tracer.enabled
        if cost <= 0:
            if traced:
                self._trace_service(message, batch_id, decisions, 0.0, 0.0)
            self.respond(message, payload)
            return
        start = max(self._busy_until, self.now)
        self._busy_until = start + cost
        if traced:
            self._trace_service(message, batch_id, decisions, start - self.now, cost)

        def send_reply() -> None:
            if self.alive:
                self.respond(message, payload)

        self.network.loop.schedule(self._busy_until - self.now, send_reply)

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
        Called only while tracing is on.
        """
        tracer = self.network.tracer
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
        Otherwise the answer is a continuation: it runs once the policy
        cache is fresh and every PIP or owner it asks has settled, and
        sends the reply itself.
        """
        if self._parked is not None:
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

        reply = partial(self._reply_after_service, message)
        self._ensure_policies(message, lambda: answer(self, query, reply))
        return None

    def _answer_query(self, query: XacmlAuthzDecisionQuery, reply) -> None:
        self._decide([query], lambda statements: reply(statements[0], 1, query.query_id))

    def _answer_owned_batch(self, batch: XacmlAuthzDecisionBatchQuery, reply) -> None:
        """Answer a peer replica's reforward of slots this replica owns.

        Never forwards again even if the local view disagrees (one-hop
        TTL — two replicas with divergent rings must not bounce a slot
        forever); evaluating locally is always correct because the
        attribute resolver is authoritative.
        """
        self.owned_batches_served += 1
        self._answer_batch(batch, reply, allow_forward=False)

    def _statements(
        self,
        queries: Sequence[XacmlAuthzDecisionQuery],
        responses: Sequence[EngineResponse],
    ) -> list[XacmlAuthzDecisionStatement]:
        """The statements answering decided ``queries``, each response's
        candidate-set size sampled on the way."""
        metrics, now = self.network.metrics, self.now
        statements = []
        for query, response in zip(queries, responses, strict=True):
            metrics.record_sample(CANDIDATE_SET_SERIES, response.stats.candidate_set_size)
            statements.append(
                XacmlAuthzDecisionStatement(
                    response=response.response,
                    in_response_to=query.query_id,
                    issuer=self.name,
                    issue_instant=now,
                    request_echo=query.request if query.return_context else None,
                )
            )
        return statements

    def _answer_batch(
        self, batch: XacmlAuthzDecisionBatchQuery, reply, allow_forward: bool = True
    ) -> None:
        def settled(statements: list[XacmlAuthzDecisionStatement]) -> None:
            answer = XacmlAuthzDecisionBatchStatement(
                statements=tuple(statements),
                in_response_to=batch.batch_id,
                issuer=self.name,
                issue_instant=self.now,
            )
            reply(answer, len(batch.queries), batch.batch_id)

        placement = self.config.placement
        if placement is None or not allow_forward:
            self._decide_batch(batch.queries, settled)
        else:
            self._answer_batch_sharded(batch, placement, settled)

    def _answer_batch_sharded(
        self,
        batch: XacmlAuthzDecisionBatchQuery,
        placement: PlacementSpec,
        then: Callable[[list[XacmlAuthzDecisionStatement]], None],
    ) -> None:
        """Answer a batch on a sharded replica: own, reforward, or fall back.

        Slots whose placement key this replica owns evaluate first.
        Misrouted slots — a client routed with a stale ring view, or a
        failover landed the envelope on a non-owner — are then
        reforwarded to their owning replica, one ask per owner, one
        owner after the other, and the owner's statements are spliced
        back in query order.  If the owner does not answer in time (or
        faults, or replies malformed) the slots are evaluated locally
        from the authoritative resolver: correctness is preserved, only
        placement is violated, and the partition does not retain the
        foreign keys.  All three paths are counted
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
        metrics = self.network.metrics
        owners = iter(misrouted.items())

        def splice(group, answers) -> None:
            for (index, _), statement in zip(group, answers, strict=True):
                statements[index] = statement
            forward_next()

        def evaluate_here(group) -> None:
            self._decide_batch([query for _, query in group], partial(splice, group))

        def forward_next() -> None:
            owner, group = next(owners, (None, None))
            if owner is None:
                then(statements)
                return
            metrics.bump("placement.misrouted", len(group))
            sub_batch = XacmlAuthzDecisionBatchQuery(
                queries=tuple(query for _, query in group),
                issuer=self.name,
                issue_instant=self.now,
                batch_id=self.network.mint("xacmlb"),
            )

            def answered(reply: Message) -> None:
                try:
                    answers = self.channel.open_batch_reply(
                        reply, owner, sub_batch.batch_id, len(group)
                    ).statements
                except (RpcFault, WsSecurityError) as exc:
                    fall_back(exc)
                    return
                self.reforwarded_batches += 1
                metrics.bump("placement.reforwarded", len(group))
                splice(group, answers)

            def fall_back(_: Exception) -> None:
                metrics.bump("placement.reforward_fallback", len(group))
                evaluate_here(group)

            action, payload = self.channel.seal(
                OWNED_BATCH_QUERY_ACTION, sub_batch.to_xml()
            )
            self.ask(owner, action, payload, answered, fall_back)

        if owned:
            evaluate_here(owned)
        else:
            forward_next()

    # -- placement lifecycle ------------------------------------------------------------

    def rebalance_placement(self) -> int:
        """Realign this replica's partition with the (changed) ring.

        Called on every replica after :meth:`~repro.components.
        placement.PlacementMap.add_replica` on the authoritative ring.
        Evicts entries whose key range moved away (the new owner
        repopulates them on demand from the shared resolver) and returns
        how many moved; the tier-wide sum is the rebalance cost counted
        as ``placement.moved_keys``.
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

    #: base action → (decode the query body, answer it).  Each is served
    #: plain and under its ``.secure`` twin by :meth:`_serve_query`.
    _ENDPOINTS = {
        QUERY_ACTION: (XacmlAuthzDecisionQuery.from_xml, _answer_query),
        BATCH_QUERY_ACTION: (XacmlAuthzDecisionBatchQuery.from_xml, _answer_batch),
        OWNED_BATCH_QUERY_ACTION: (
            XacmlAuthzDecisionBatchQuery.from_xml,
            _answer_owned_batch,
        ),
    }


#: The request category a placement's ``shard_by`` partitions.
_SHARD_CATEGORY = {"subject": Category.SUBJECT, "resource": Category.RESOURCE}


class _Decision:
    """Queries being decided in order under one store snapshot and one
    instant, by a PDP with an attribute source (see
    :meth:`PolicyDecisionPoint._decide`); ``then`` gets their statements
    once each has settled.

    A pass evaluates every request not yet settled.  Its first miss
    (see :meth:`finder_for`) settles the requests before it; the PIPs
    are asked for that one designator, and the next pass starts from
    the request that missed, with the answer among the bags.  So the
    PIP queries go out one at a time, in the order a blocking finder
    would have sent them, and a pass that still had a miss is thrown
    away.  When no PIP answers at all, that request is Indeterminate
    (``missing-attribute``): an unreachable attribute authority is not
    an absent attribute.  (A class rather than closures that call each
    other: those would leave every decision behind as a reference cycle
    for the garbage collector.)
    """

    __slots__ = (
        "pdp", "queries", "then", "store", "now", "bags", "responses", "index", "misses"
    )

    def __init__(
        self,
        pdp: PolicyDecisionPoint,
        queries: Sequence[XacmlAuthzDecisionQuery],
        then: Callable[[list[XacmlAuthzDecisionStatement]], None],
    ) -> None:
        pdp.decisions_made += len(queries)
        self.pdp, self.queries, self.then = pdp, queries, then
        self.store, self.now = pdp.engine.store, pdp.now
        #: ``(request index, category, attribute id, data type)`` -> what
        #: the PIPs said; the requests settled so far.
        self.bags: dict[tuple, list[AttributeValue]] = {}
        self.responses: list[EngineResponse] = []

    def run(self) -> None:
        pdp, responses = self.pdp, self.responses
        engine = pdp.engine
        if engine.store is not self.store:  # a refresh landed meanwhile
            engine = PdpEngine(self.store, engine.policy_combining)
        start = self.index = len(responses)
        self.misses: list[tuple] = []
        passes = engine.evaluate_batch(
            [query.request for query in self.queries[start:]],
            current_time=self.now,
            finder_for=self.finder_for,
        )
        if self.misses:
            ((key, query),) = self.misses
            responses.extend(passes[: key[0] - start])
            pdp._ask_pips(query, partial(self.fetched, key, passes[key[0] - start]))
            return
        responses.extend(passes)
        self.then(pdp._statements(self.queries, responses))

    def finder_for(self, request: RequestContext) -> AttributeFinder:
        """The attribute finder of the next request of this pass.

        It answers from what the PIPs already said (``bags``), else from
        the partition (sharded: faulting owned state in from the
        authoritative resolver on first touch) or the resolver.  A
        designator only a PIP can supply is a miss: the pass's first is
        recorded in ``misses``, and it reads as an empty bag until the
        PIPs have answered — the engine's contract holds, a finder
        never raises.
        """
        pdp, bags, misses = self.pdp, self.bags, self.misses
        index, self.index = self.index, self.index + 1
        partition, resolver = pdp.partition, pdp.attribute_resolver
        shard_category = _SHARD_CATEGORY.get(partition.spec.shard_by) if partition else None

        def finder(
            category: Category, attribute_id: str, data_type: DataType
        ) -> list[AttributeValue]:
            key = (index, category, attribute_id, data_type)
            if key in bags:
                return bags[key]
            if category is Category.SUBJECT:
                about = request.subject_id or ""
            elif category is Category.RESOURCE:
                about = request.resource_id or ""
            else:
                about = ""
            values = []
            if about and category is shard_category:
                values = partition.lookup(about, attribute_id, data_type)
            elif about and resolver is not None:
                values = [
                    value
                    for value in (resolver(about) or {}).get(attribute_id, [])
                    if value.data_type is data_type
                ]
            if not values and pdp.pip_addresses and not misses:
                misses.append((key, serialize_pip_query(category, attribute_id, about, data_type)))
            return values

        return finder

    def fetched(self, key: tuple, response: EngineResponse, values) -> None:
        if values is not None:
            self.bags[key] = values
        else:
            status = Status(StatusCode.MISSING_ATTRIBUTE, f"no PIP answered for {key[2]}")
            missing = ResponseContext.single(
                Decision.INDETERMINATE, status, resource_id=self.queries[key[0]].request.resource_id
            )
            self.responses.append(EngineResponse(missing, response.stats))
        self.run()
