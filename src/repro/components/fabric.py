"""The batched decision fabric: coalescing, aggregation and dispatch.

Client-side plumbing that turns the one-query-per-message PEP→PDP hot
path into a batched, load-balanced pipeline:

* :class:`DecisionDispatcher` — routes decision traffic across a set of
  PDP replicas (round-robin or least-outstanding) and fails over to the
  next replica on :class:`~repro.components.base.RpcTimeout`, which
  makes E11-style replication an actual *throughput* mechanism rather
  than only an availability one;
* :class:`BatchWireCore` — the shared wire machinery every batching
  tier rides on: the in-flight map, timeout failover across replicas,
  sealing and reply validation through the job's
  :class:`~repro.components.channel.DecisionChannel`, and fail-safe
  fan-out.  The per-PEP queue, the
  domain gateway and the cross-domain federated gateway all delegate to
  one core instead of carrying private copies;
* :class:`CoalescingDecisionQueue` — accumulates a PEP's outbound
  decision requests and flushes them as one
  :class:`~repro.saml.xacml_profile.XacmlAuthzDecisionBatchQuery` when
  the batch fills (``max_batch``) or ages out (``max_delay``), with
  in-flight deduplication: identical concurrent requests ride one wire
  slot and every waiter gets its own enforcement result;
* :class:`DomainDecisionGateway` — a per-domain aggregation point many
  PEPs register with.  Queue flushes from every registered PEP merge
  into *super-batches*: identical requests from different PEPs share
  one wire slot (cross-PEP dedup), results are demultiplexed back to
  each owning PEP's queue for per-PEP enforcement, and an optional
  fairness cap bounds one chatty PEP's share of any super-batch so its
  backlog cannot starve quieter peers.

The cross-domain tier (:class:`~repro.components.federation.
FederatedGateway`) extends the gateway with gateway→gateway forwarding
for requests governed by other domains.

The queue and gateway are fully event-driven: flushes *send* a message
and return, and replies/timeouts are handled as ordinary inbound events,
so a completion callback may safely submit the next request (the
closed-loop pattern of :mod:`repro.workloads.highload`) without growing
the stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Protocol, Sequence, Union

from ..observability.tracing import TRACE_HEADER
from ..simnet.events import EventHandle
from ..simnet.message import Message
from ..simnet.network import Network
from ..saml.xacml_profile import XacmlAuthzDecisionBatchQuery
from ..xacml.context import RequestContext
from .base import Component, ComponentIdentity, RpcFault, RpcTimeout, _parse_fault
from .channel import DecisionChannel
from .pdp import BATCH_QUERY_ACTION, SECURE_BATCH_QUERY_ACTION
from .placement import PlacementMap, PlacementSpec

#: Metrics sample series fed with per-request submit→completion delays.
QUEUE_LATENCY_SERIES = "fabric.queue_latency"

#: Metrics sample series fed with gateway super-batch sizes (unique
#: requests per envelope).
SUPER_BATCH_SERIES = "fabric.super_batch_size"


def pep_latency_series(pep_name: str) -> str:
    """Per-PEP submit→completion sample series (fairness reporting)."""
    return f"{QUEUE_LATENCY_SERIES}.{pep_name}"


#: Load-balancing policies the dispatcher understands by name.  The
#: names are a back-compat factory over the :class:`RoutingPolicy`
#: implementations below; callers may also pass a policy object.
DISPATCH_POLICIES = (
    "round-robin",
    "least-outstanding",
    "hash-subject",
    "hash-resource",
)


class RoutingPolicy(Protocol):
    """How a :class:`DecisionDispatcher` picks among live replicas.

    A policy is pure selection logic over the dispatcher's bookkeeping
    (replica list, outstanding counters, rotation cursor); the
    dispatcher keeps owning the counters and the failover loop.

    Attributes:
        name: stable identifier, also accepted by the string factory.
    """

    name: str

    def choose(
        self,
        dispatcher: "DecisionDispatcher",
        candidates: Sequence[str],
        request: Optional[RequestContext] = None,
    ) -> str:
        """Pick one of ``candidates`` (non-empty, in ring order)."""
        ...


class RoundRobinRouting:
    """Rotate through the replica ring regardless of load or key."""

    name = "round-robin"

    def choose(self, dispatcher, candidates, request=None) -> str:
        return dispatcher._rotate(candidates)

    def __repr__(self) -> str:
        return "RoundRobinRouting()"


class LeastOutstandingRouting:
    """Prefer the replica with the fewest in-flight envelopes.

    Only differs from round-robin once replies actually take time —
    i.e. under the PDP service-time model.  Ties rotate, because on the
    synchronous path outstanding counts are back to zero by the next
    select and least-outstanding would otherwise pin every request to
    the first replica.
    """

    name = "least-outstanding"

    def choose(self, dispatcher, candidates, request=None) -> str:
        lowest = min(dispatcher.outstanding[r] for r in candidates)
        ties = [r for r in candidates if dispatcher.outstanding[r] == lowest]
        return dispatcher._rotate(ties)

    def __repr__(self) -> str:
        return "LeastOutstandingRouting()"


class ConsistentHashRouting:
    """Route each request to the replica owning its placement key.

    The sharded tier's client half: with a :class:`~repro.components.
    placement.PlacementSpec` shared with the PDP replicas, decisions for
    one subject (or resource) always land on the replica that owns that
    key's attribute partition.  Failover and keyless traffic walk the
    ring: excluded owners fall through to the key's ring successors, and
    a selection with no request at all (pure load-balancing calls)
    degrades to rotation.
    """

    name = "hash"

    def __init__(self, placement: PlacementSpec) -> None:
        if not isinstance(placement, PlacementSpec):
            raise ValueError(
                f"ConsistentHashRouting needs a PlacementSpec, got "
                f"{type(placement).__name__}"
            )
        self.placement = placement
        self.name = f"hash-{placement.shard_by}"

    def choose(self, dispatcher, candidates, request=None) -> str:
        if request is not None:
            for address in self.placement.preference_for(request):
                if address in candidates:
                    return address
        return dispatcher._rotate(candidates)

    def __repr__(self) -> str:
        return f"ConsistentHashRouting({self.placement.shard_by})"


def make_routing_policy(
    policy: Union[str, RoutingPolicy],
    replicas: Sequence[str] = (),
    placement: Optional[PlacementSpec] = None,
) -> RoutingPolicy:
    """Resolve a policy name (or pass a policy object through).

    The hash policies need a placement; when none is supplied one is
    derived from the replica list, which is correct exactly when the
    server side shares the same default ring (the
    :func:`~repro.components.placement.PlacementSpec` constructor
    defaults).
    """
    if not isinstance(policy, str):
        return policy
    if policy == "round-robin":
        return RoundRobinRouting()
    if policy == "least-outstanding":
        return LeastOutstandingRouting()
    if policy in ("hash-subject", "hash-resource"):
        if placement is None:
            if not replicas:
                raise ValueError(
                    f"routing policy {policy!r} needs replicas or a placement"
                )
            placement = PlacementSpec(
                shard_by=policy.removeprefix("hash-"),
                ring=PlacementMap(replicas),
            )
        return ConsistentHashRouting(placement)
    raise ValueError(
        f"unknown dispatch policy {policy!r}; "
        f"expected one of {DISPATCH_POLICIES}"
    )


class DecisionDispatcher:
    """Load-balances decision queries over PDP replicas, with failover.

    The dispatcher is transport-neutral bookkeeping plus two entry
    points: :meth:`dispatch` performs a synchronous RPC with failover
    for the blocking PEP paths, while the coalescing queue drives
    :meth:`select` / :meth:`note_sent` / :meth:`note_done` itself for
    the event-driven path.  *Which* replica a selection picks is
    delegated to a :class:`RoutingPolicy` — pass one directly, or a
    policy name from :data:`DISPATCH_POLICIES` for the back-compat
    string factory.

    Args:
        replica_addresses: the PDP replica ring, in order.
        policy: routing policy object or name.
        placement: placement spec for the hash policies; ignored by the
            load-based policies.  When a hash policy name is given
            without a placement, a default ring over
            ``replica_addresses`` is derived.
    """

    def __init__(
        self,
        replica_addresses: Sequence[str],
        policy: Union[str, RoutingPolicy] = "round-robin",
        placement: Optional[PlacementSpec] = None,
    ) -> None:
        if not replica_addresses:
            raise ValueError("dispatcher needs at least one PDP replica")
        self.replicas = list(replica_addresses)
        self.routing = make_routing_policy(
            policy, replicas=self.replicas, placement=placement
        )
        self.outstanding: dict[str, int] = {
            address: 0 for address in self.replicas
        }
        self.dispatches = 0
        self.failovers = 0
        self._rr = 0

    @property
    def policy(self) -> str:
        """The routing policy's name (back-compat string view)."""
        return self.routing.name

    @property
    def placement(self) -> Optional[PlacementSpec]:
        """The placement spec when routing is placement-aware."""
        return getattr(self.routing, "placement", None)

    def _rotate(self, candidates: Sequence[str]) -> str:
        """Next candidate under the shared rotation cursor.

        One cursor serves every policy so ties (and round-robin's
        everything-is-a-tie) rotate through the ring deterministically.
        """
        while True:  # candidates is a non-empty subset of the ring
            choice = self.replicas[self._rr % len(self.replicas)]
            self._rr += 1
            if choice in candidates:
                return choice

    def select(
        self,
        exclude: Sequence[str] = (),
        request: Optional[RequestContext] = None,
    ) -> Optional[str]:
        """Pick the next replica, or None when every candidate is excluded.

        ``request`` lets key-aware policies route by placement key; the
        load-based policies ignore it.
        """
        candidates = [r for r in self.replicas if r not in exclude]
        if not candidates:
            return None
        return self.routing.choose(self, candidates, request)

    def note_sent(self, address: str) -> None:
        self.outstanding[address] += 1

    def note_done(self, address: str) -> None:
        self.outstanding[address] = max(0, self.outstanding[address] - 1)

    def partition(
        self, items: Sequence, request_of: Callable[[object], RequestContext]
    ) -> list[tuple[Optional[str], list]]:
        """Group ``items`` by owning replica under the placement.

        The shard-aware tiers call this before putting envelopes on the
        wire so one flush becomes one envelope *per owner* instead of
        one envelope aimed wherever the load balancer points.  Without a
        placement everything stays in a single group with no target
        (``None``), which the senders treat exactly like today's path.
        Groups preserve first-seen owner order and intra-group item
        order, so decisions still come back in a deterministic order.
        """
        placement = self.placement
        if placement is None:
            return [(None, list(items))]
        groups: dict[str, list] = {}
        for item in items:
            owner = placement.owner_of(request_of(item))
            groups.setdefault(owner, []).append(item)
        return list(groups.items())

    def selector_for(
        self, target: Optional[str]
    ) -> Callable[[Sequence[str]], Optional[str]]:
        """A select callable pinned to ``target`` with rotation failover.

        Used as the per-envelope ``WireJob.select`` override for a
        partitioned send: the first attempt goes to the owning replica,
        a timeout fails over through the ordinary selection (the owner
        lands in ``exclude``), and ``target=None`` degrades to plain
        :meth:`select`.
        """

        def select(exclude: Sequence[str] = ()) -> Optional[str]:
            if (
                target is not None
                and target in self.replicas
                and target not in exclude
            ):
                return target
            return self.select(exclude=exclude)

        return select

    def dispatch(
        self,
        caller,
        action: str,
        payload,
        timeout: float,
        request: Optional[RequestContext] = None,
    ) -> tuple[Message, str]:
        """Synchronous RPC through the next replica; failover on timeout.

        Faults are *answers* (an authentication rejection must not be
        retried against a sibling), so only :class:`RpcTimeout` rotates
        to the next replica.  Raises the last timeout when every replica
        has been tried.

        Returns:
            ``(reply, address)`` — the reply message and which replica
            produced it (secure callers pin signature checks to it).
        """
        self.dispatches += 1
        tried: list[str] = []
        last_timeout: Optional[RpcTimeout] = None
        while True:
            address = self.select(exclude=tried, request=request)
            if address is None:
                if last_timeout is not None:
                    raise last_timeout
                raise RpcTimeout(caller.name, "<none>", action, caller.now)
            tried.append(address)
            self.note_sent(address)
            try:
                reply = caller.call(address, action, payload, timeout=timeout)
            except RpcTimeout as exc:
                last_timeout = exc
                self.failovers += 1
                continue
            finally:
                self.note_done(address)
            return reply, address

    def selector(self) -> Callable[[], Optional[str]]:
        """Adapter usable as a PEP's ``pdp_selector`` hook."""
        return lambda: self.select()

    def __repr__(self) -> str:
        return (
            f"DecisionDispatcher({self.policy}, replicas={len(self.replicas)}, "
            f"outstanding={sum(self.outstanding.values())})"
        )


#: Completion callback: receives the waiter's EnforcementResult.
CompletionCallback = Callable[[object], None]


@dataclass
class _PendingDecision:
    """One unique request awaiting batching, with all its waiters.

    ``key`` is the *scoped* dedup key — the owning PEP's (domain, name)
    identity plus the request's cache key — so entries from different
    PEPs can never collide in any shared map (two PEPs behind one
    gateway may carry identical-looking requests that must still be
    enforced, cached and counted per PEP).  ``cache_key`` is the bare
    request identity used for the owner's decision cache and for the
    gateway's cross-PEP wire dedup.
    """

    request: RequestContext
    key: tuple
    cache_key: tuple
    enqueued_at: float
    owner: "CoalescingDecisionQueue"
    callbacks: list[CompletionCallback] = field(default_factory=list)
    #: Sampled decision-path trace (``observability.DecisionTrace``),
    #: ``None`` when tracing is off or this decision was not sampled.
    trace: Optional[object] = None


# -- the shared wire core ----------------------------------------------------------


def _batch_body(batch: XacmlAuthzDecisionBatchQuery) -> tuple[str, str]:
    """The default envelope body: the batch query itself, PDP-bound."""
    return BATCH_QUERY_ACTION, batch.to_xml()


@dataclass
class WireJob:
    """How one class of envelopes travels: the core's variation points.

    A tier configures a default job at construction; sends may override
    it per envelope (the federated gateway uses that to aim the same
    core at local replicas, peer gateways and remote replica sets).
    Every in-flight item carries its ``request``; the core batches
    those, and the job's channel seals the query and opens the reply —
    signature policy lives there, not in per-tier callbacks.

    Attributes:
        select: pick the next destination given the already-tried list;
            None means every candidate is exhausted (fail-safe).
        deliver: fan a validated statement list out to the items.
        fail: fan one exception out to the items (fail-safe deny).
        timeout: per-attempt reply deadline in simulated seconds.
        channel: the sending component's decision channel.
        encode: turn the batch query into ``(base action, body)``;
            the federated gateway wraps forwards here.
        dispatcher: optional dispatcher whose outstanding counters and
            failover tally this job maintains.
        on_sent: called with the items after each transmit attempt
            (per-tier counters and sample series).
    """

    select: Callable[[Sequence[str]], Optional[str]]
    deliver: Callable[[list, Sequence], None]
    fail: Callable[[list, Exception], None]
    timeout: float
    channel: DecisionChannel
    encode: Callable[[XacmlAuthzDecisionBatchQuery], tuple[str, str]] = (
        _batch_body
    )
    dispatcher: Optional[DecisionDispatcher] = None
    on_sent: Optional[Callable[[list], None]] = None


@dataclass
class _InflightEnvelope:
    """One batch envelope on the wire, awaiting its reply or deadline."""

    batch: XacmlAuthzDecisionBatchQuery
    items: list
    replica: str
    tried: list[str]
    sent_at: float
    job: WireJob
    #: Open envelope span for this transmit attempt (tracing only).
    trace: Optional[object] = None

    # The per-PEP tier calls its items entries; the gateway tiers call
    # them slots.  Both views read the same list.
    @property
    def entries(self) -> list:
        return self.items

    @property
    def slots(self) -> list:
        return self.items


class BatchWireCore:
    """The shared in-flight/failover machinery of every batching tier.

    Owns exactly the four duplicated pieces the tiers used to carry
    privately: the in-flight map (msg_id → envelope), timeout failover
    across replicas, reply validation (the job channel's signature,
    batch id and statement count checks) and fail-safe fan-out on
    faults, forged replies and replica exhaustion.

    The core is deliberately policy-free: *what* travels, *where* it
    may go and *how* results land stay with the owning tier through its
    :class:`WireJob`.
    """

    def __init__(
        self,
        component: Component,
        job: WireJob,
        actions: Sequence[str] = (),
        label: str = "wire",
    ) -> None:
        self.component = component
        self.job = job
        self.label = label
        self._inflight: dict[int, _InflightEnvelope] = {}
        self.envelopes_sent = 0
        self.failovers = 0
        for action in actions:
            component.on(f"{action}:response", self.handle_reply)
            component.on(f"{action}:fault", self.handle_fault)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    # -- sending ------------------------------------------------------------------

    def send(
        self, items: list, tried: Sequence[str] = (), job: Optional[WireJob] = None
    ) -> float:
        """Put one envelope on the wire; returns its serialisation time.

        The return value (message bytes over the egress link's
        bandwidth) is what a paced drain waits before emitting the next
        envelope.  When every destination is exhausted the items fail
        safe immediately and 0.0 is returned.
        """
        job = job if job is not None else self.job
        replica = job.select(tried)
        if replica is None:
            job.fail(
                list(items),
                RpcTimeout(
                    self.component.name, "<none>", "no PDP reachable",
                    self.component.now,
                ),
            )
            return 0.0
        return self._transmit(replica, list(items), list(tried), job)

    def _transmit(
        self, replica: str, items: list, tried: list[str], job: WireJob
    ) -> float:
        # Built per transmit attempt: a failover re-send gets a fresh
        # batch id and a fresh signature.
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [item.request for item in items],
            issuer=self.component.name,
            issue_instant=self.component.now,
        )
        action, payload = job.channel.seal(*job.encode(batch))
        message = Message(
            sender=self.component.name,
            recipient=replica,
            kind=action,
            payload=payload,
        )
        tracer = self.component.network.tracer
        envelope_trace = None
        if tracer.enabled:
            # The context rides the message *headers* — outside the
            # size model, like a traceparent header — so tracing never
            # changes envelope bytes, counts or pacing.
            envelope_trace = tracer.envelope_sent(
                self.component,
                items,
                batch_id=batch.batch_id,
                kind=action,
                replica=replica,
                attempt=len(tried) + 1,
            )
            message.headers[TRACE_HEADER] = envelope_trace.context.header()
        self._inflight[message.msg_id] = _InflightEnvelope(
            batch=batch,
            items=items,
            replica=replica,
            tried=tried + [replica],
            sent_at=self.component.now,
            job=job,
            trace=envelope_trace,
        )
        if job.dispatcher is not None:
            job.dispatcher.note_sent(replica)
        self.envelopes_sent += 1
        if job.on_sent is not None:
            job.on_sent(items)
        self.component.node.send(message)
        self.component.network.loop.schedule(
            job.timeout,
            lambda: self._check_timeout(message.msg_id),
            label=f"{self.label}-timeout",
        )
        link = self.component.network.link_between(self.component.name, replica)
        return message.size_bytes / link.bandwidth

    # -- replies, faults, deadlines ----------------------------------------------

    def _take_inflight(
        self, reply_to: Optional[int]
    ) -> Optional[_InflightEnvelope]:
        if reply_to is None:
            return None
        inflight = self._inflight.pop(reply_to, None)
        if inflight is not None and inflight.job.dispatcher is not None:
            inflight.job.dispatcher.note_done(inflight.replica)
        return inflight

    def _check_timeout(self, msg_id: int) -> None:
        inflight = self._take_inflight(msg_id)
        if inflight is None:
            return  # answered in time (or already failed over)
        job = inflight.job
        replica = job.select(inflight.tried)
        if replica is None:
            if inflight.trace is not None:
                self.component.network.tracer.envelope_done(
                    inflight.trace, inflight.items, "exhausted"
                )
            job.fail(
                inflight.items,
                RpcTimeout(
                    self.component.name,
                    inflight.replica,
                    "batch decision query",
                    self.component.now,
                ),
            )
            return
        self.failovers += 1
        if job.dispatcher is not None:
            job.dispatcher.failovers += 1
        if inflight.trace is not None:
            self.component.network.tracer.envelope_done(
                inflight.trace, inflight.items, "timeout"
            )
        self._transmit(replica, inflight.items, inflight.tried, job)

    def handle_reply(self, message: Message) -> None:
        inflight = self._take_inflight(message.reply_to)
        if inflight is None:
            return None  # late reply after a timeout-triggered failover
        job = inflight.job
        try:
            statement_batch = job.channel.open_batch_reply(
                message,
                inflight.replica,
                inflight.batch.batch_id,
                len(inflight.items),
            )
        except Exception as exc:  # malformed/forged reply: fail safe
            if inflight.trace is not None:
                self.component.network.tracer.envelope_done(
                    inflight.trace, inflight.items, "reply-rejected"
                )
            job.fail(inflight.items, exc)
            return None
        if inflight.trace is not None:
            self.component.network.tracer.envelope_done(
                inflight.trace, inflight.items, "ok"
            )
        job.deliver(inflight.items, statement_batch.statements)
        return None

    def handle_fault(self, message: Message) -> None:
        inflight = self._take_inflight(message.reply_to)
        if inflight is None:
            return None
        code, reason = _parse_fault(str(message.payload))
        if inflight.trace is not None:
            self.component.network.tracer.envelope_done(
                inflight.trace, inflight.items, "fault"
            )
        # A fault is an answer, not a crash: no failover, fail-safe deny.
        inflight.job.fail(inflight.items, RpcFault(code, reason))
        return None

    def __repr__(self) -> str:
        return (
            f"BatchWireCore({self.component.name}, label={self.label}, "
            f"inflight={len(self._inflight)})"
        )


class CoalescingDecisionQueue:
    """Client-side request coalescing in front of a PEP's PDP traffic.

    Args:
        pep: the owning :class:`~repro.components.pep.
            PolicyEnforcementPoint`; its revocation guard, decision
            cache, obligation handlers and counters all apply exactly as
            on the synchronous path.
        max_batch: flush as soon as this many *unique* requests wait.
        max_delay: flush this many simulated seconds after the first
            request entered an empty queue (latency bound).
        dispatcher: optional replica dispatcher; without one every batch
            goes to the PEP's configured/selected PDP and a timeout is a
            fail-safe denial rather than a failover.
        gateway: optional :class:`DomainDecisionGateway`; when given,
            flushes hand their entries to the gateway (the domain's
            shared aggregation point) instead of putting a per-PEP
            envelope on the wire, and the gateway completes them via
            :meth:`_complete_entry` / :meth:`_fail_entry`.
    """

    def __init__(
        self,
        pep,
        max_batch: int = 16,
        max_delay: float = 0.002,
        dispatcher: Optional[DecisionDispatcher] = None,
        gateway: Optional["DomainDecisionGateway"] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.pep = pep
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.dispatcher = dispatcher
        self.gateway = gateway
        #: Scope prefix of every dedup key this queue mints: the owning
        #: PEP's identity.  Keeps entries from different PEPs distinct
        #: even inside shared (gateway-tier) bookkeeping.
        self._scope = (pep.domain, pep.name)
        self._pending: dict[tuple, _PendingDecision] = {}
        #: scoped key -> entry for every request currently on the wire,
        #: so in-flight dedup is O(1) rather than a scan per submission.
        self._inflight_keys: dict[tuple, _PendingDecision] = {}
        self._flush_handle: Optional[EventHandle] = None
        self.submissions = 0
        self.deduplicated = 0
        self.batches_sent = 0
        self.flushes_on_size = 0
        self.flushes_on_delay = 0
        self.completions = 0
        self._wire = BatchWireCore(
            pep,
            WireJob(
                select=self._select_replica,
                deliver=self._deliver_entries,
                fail=self._fail_batch,
                timeout=pep.config.pdp_timeout,
                channel=pep.channel,
                dispatcher=dispatcher,
                on_sent=self._note_batch_sent,
            ),
            actions=(BATCH_QUERY_ACTION, SECURE_BATCH_QUERY_ACTION),
            label="fabric",
        )
        if gateway is not None:
            gateway.register(self)

    def scoped_key(self, cache_key: tuple) -> tuple:
        """The PEP/domain-scoped dedup key for one request identity."""
        return (self._scope, cache_key)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def _inflight(self) -> dict[int, _InflightEnvelope]:
        return self._wire._inflight

    @property
    def inflight_count(self) -> int:
        return self._wire.inflight_count

    @property
    def failovers(self) -> int:
        return self._wire.failovers

    # -- submission --------------------------------------------------------------

    def submit(
        self, request: RequestContext, callback: CompletionCallback
    ) -> bool:
        """Enqueue one enforcement; ``callback`` receives the result.

        Returns True when the request completed synchronously (revocation
        guard denial or decision-cache hit) and False when it was queued
        for a batched PDP round-trip.  Identical requests already queued
        or in flight are deduplicated: the new waiter joins the existing
        wire slot.
        """
        self.submissions += 1
        self.pep.enforcements += 1
        cache_key = request.cache_key()
        tracer = self.pep.network.tracer
        immediate = self.pep._pre_decision(request, cache_key)
        if immediate is not None:
            if tracer.enabled:
                tracer.sync_decision(self.pep, request, immediate)
            self.completions += 1
            callback(immediate)
            return True
        key = self.scoped_key(cache_key)
        entry = self._pending.get(key) or self._inflight_keys.get(key)
        if entry is not None:
            self.deduplicated += 1
            if tracer.enabled:
                tracer.join_decision(entry.trace)
            entry.callbacks.append(callback)
            return False
        entry = _PendingDecision(
            request=request,
            key=key,
            cache_key=cache_key,
            enqueued_at=self.pep.now,
            owner=self,
            callbacks=[callback],
            trace=(
                tracer.begin_decision(self.pep, request)
                if tracer.enabled
                else None
            ),
        )
        self._pending[key] = entry
        if len(self._pending) >= self.max_batch:
            self.flushes_on_size += 1
            self.flush()
        elif self._flush_handle is None:
            self._flush_handle = self.pep.network.loop.schedule(
                self.max_delay, self._flush_on_delay, label="fabric-flush"
            )
        return False

    def _flush_on_delay(self) -> None:
        self._flush_handle = None
        if self._pending:
            self.flushes_on_delay += 1
            self.flush()

    def flush(self) -> None:
        """Send everything pending as one batch query immediately.

        With a gateway attached the entries are handed to the domain's
        aggregation point instead; they count as in flight here (so
        later identical submissions still join them) and the gateway
        completes or fails each one through this queue.
        """
        if self._flush_handle is not None:
            self.pep.network.loop.cancel(self._flush_handle)
            self._flush_handle = None
        if not self._pending:
            return
        entries = list(self._pending.values())
        self._pending.clear()
        now = self.pep.now
        for entry in entries:  # stays put until completion/failure
            self._inflight_keys[entry.key] = entry
            if entry.trace is not None:
                entry.trace.mark("flush", now)
        if self.gateway is not None:
            # No envelope leaves this queue: the gateway owns the wire
            # (its super_batches_sent counts envelopes; this queue's
            # batches_sent stays a wire-traffic counter and is not
            # incremented for hand-offs).
            self.gateway.ingest(self, entries)
            return
        self._send_partitioned(entries)

    def _send_partitioned(self, entries: list) -> None:
        """Send one flush, split into one envelope per owning shard.

        With a placement-aware dispatcher each group is pinned to the
        replica owning its key range (timeouts still fail over through
        ordinary selection); otherwise the whole flush rides one
        envelope exactly as before.
        """
        if self.dispatcher is None or self.dispatcher.placement is None:
            self._wire.send(entries)
            return
        for target, group in self.dispatcher.partition(
            entries, lambda entry: entry.request
        ):
            job = replace(
                self._wire.job, select=self.dispatcher.selector_for(target)
            )
            self._wire.send(group, job=job)

    # -- the wire (BatchWireCore variation points) --------------------------------

    def _select_replica(self, exclude: Sequence[str]) -> Optional[str]:
        if self.dispatcher is not None:
            return self.dispatcher.select(exclude=exclude)
        if exclude:
            return None  # no dispatcher: a timeout has nowhere to go
        return self.pep._choose_pdp()

    def _note_batch_sent(self, entries: list) -> None:
        self.batches_sent += 1

    def _deliver_entries(self, entries: list, statements: Sequence) -> None:
        for entry, statement in zip(entries, statements, strict=False):
            self._complete_entry(entry, statement)

    # -- per-entry completion (driven locally or by the gateway) -----------------

    def _record_latency(self, entry: _PendingDecision) -> None:
        delay = self.pep.now - entry.enqueued_at
        metrics = self.pep.network.metrics
        metrics.record_sample(QUEUE_LATENCY_SERIES, delay)
        metrics.record_sample(pep_latency_series(self.pep.name), delay)

    def _complete_entry(self, entry: _PendingDecision, statement) -> None:
        """Deliver one decision statement to every waiter of ``entry``.

        Caching, obligation enforcement and counters all happen against
        the *owning* PEP — the gateway demultiplexes a shared wire slot
        into one of these calls per contributing PEP.
        """
        self._inflight_keys.pop(entry.key, None)
        self.pep.decision_cache.put(entry.cache_key, statement)
        self._record_latency(entry)
        last_result = None
        for callback in entry.callbacks:
            result = self.pep._enforce(
                statement.response.decision,
                tuple(statement.response.result.obligations),
                entry.request,
                source="pdp",
            )
            self.completions += 1
            last_result = result
            callback(result)
        if entry.trace is not None:
            self.pep.network.tracer.finish_decision(
                entry.trace,
                self.pep,
                granted=getattr(last_result, "granted", False),
                decision=str(statement.response.decision),
                source="pdp",
            )

    def _fail_entry(self, entry: _PendingDecision, exc: Exception) -> None:
        """Fail-safe denial for every waiter of one entry."""
        self._inflight_keys.pop(entry.key, None)
        self._record_latency(entry)
        last_result = None
        for callback in entry.callbacks:
            result = self.pep._fail_safe_result(exc)
            self.completions += 1
            last_result = result
            callback(result)
        if entry.trace is not None:
            self.pep.network.tracer.finish_decision(
                entry.trace,
                self.pep,
                granted=getattr(last_result, "granted", False),
                decision=str(getattr(last_result, "decision", "")),
                source=getattr(last_result, "source", "fail-safe"),
                error=type(exc).__name__,
            )

    def _fail_batch(
        self, entries: list[_PendingDecision], exc: Exception
    ) -> None:
        """Fail-safe denial for every waiter of every entry.

        The event-driven queue has no caller to re-raise into, so it
        always enforces the deny-on-failure stance regardless of
        ``PepConfig.deny_on_failure`` — the fail-open variant only
        exists on the synchronous path.
        """
        for entry in entries:
            self._fail_entry(entry, exc)

    def __repr__(self) -> str:
        return (
            f"CoalescingDecisionQueue(pep={self.pep.name}, "
            f"max_batch={self.max_batch}, pending={len(self._pending)}, "
            f"inflight={self.inflight_count})"
        )


@dataclass
class _WireSlot:
    """One unique request at the gateway tier, shared across PEPs.

    Entries from different PEPs whose requests have the same cache key
    attach to one slot (cross-PEP dedup): the slot travels once, the
    reply statement is enforced per entry through each owning queue.
    """

    request: RequestContext
    cache_key: tuple
    owner: str  # name of the PEP whose flush first contributed the slot
    entries: list[_PendingDecision] = field(default_factory=list)


class DomainDecisionGateway(Component):
    """Per-domain aggregation point between many PEPs and the PDP tier.

    PR 2's coalescing queue amortises per-envelope cost *per PEP*; a
    domain full of PEPs still pays one envelope per PEP per flush.  The
    gateway is the missing tier the paper's multi-domain architecture
    implies: every registered PEP's queue flushes into it, and it merges
    those flushes into super-batches for the shared
    :class:`DecisionDispatcher`:

    * **cross-PEP dedup** — identical requests from different PEPs ride
      one wire slot; each PEP still gets its own enforcement (its own
      obligations, counters, decision cache) when the slot's statement
      is demultiplexed back through the owning queues;
    * **fairness** — super-batches are drawn round-robin across the
      registered PEPs' backlogs, and ``fairness_cap`` (when set) hard-
      bounds one PEP's share of any super-batch, so a chatty PEP's
      backlog turns into extra envelopes for *it* rather than queueing
      delay for everyone else;
    * **failover** — like the per-PEP queue, a timed-out super-batch is
      re-sent to the next replica; faults are answers and fail safe.
      Both behaviours come from the shared :class:`BatchWireCore`, not
      a private copy.

    The PEP→gateway hand-off is an intra-domain call (the gateway is
    the domain's local aggregation sidecar); only gateway→PDP traffic
    crosses the simulated network, which is exactly the boundary whose
    per-message cost the paper's §3.2 analysis worries about.

    Args:
        name: network address of the gateway component.
        network: the shared simulated network.
        dispatcher: replica dispatcher the gateway feeds (required —
            aggregation without dispatch would re-create the single
            choke point replication exists to remove).
        domain: owning administrative domain.
        identity: key material for the secure channel.
        max_batch: flush as soon as this many unique slots are pending;
            also the hard size cap of one super-batch envelope (a flush
            with a larger backlog drains as several envelopes, which
            the dispatcher spreads over replicas).
        max_delay: flush this many simulated seconds after the first
            slot entered an empty backlog (latency bound for merging
            several PEPs' flushes into one envelope).
        fairness_cap: maximum slots one PEP contributes to a single
            super-batch; None disables the cap (round-robin draw only).
        secure_channel: sign super-batch queries / verify reply
            signatures with the gateway's identity.
        pdp_timeout: RPC deadline towards the PDP tier.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        dispatcher: DecisionDispatcher,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        max_batch: int = 64,
        max_delay: float = 0.001,
        fairness_cap: Optional[int] = None,
        secure_channel: bool = False,
        pdp_timeout: float = 2.0,
    ) -> None:
        super().__init__(name, network, domain, identity)
        if dispatcher is None:
            raise ValueError("gateway requires a DecisionDispatcher")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if fairness_cap is not None and fairness_cap < 1:
            raise ValueError(f"fairness_cap must be >= 1, got {fairness_cap}")
        #: How every envelope this gateway sends (PDP-bound, forwarded)
        #: or serves is sealed and opened.
        self.channel = DecisionChannel(
            self, secure=secure_channel, role="gateway"
        )
        self.dispatcher = dispatcher
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.fairness_cap = fairness_cap
        self.pdp_timeout = pdp_timeout
        self._queues: dict[str, CoalescingDecisionQueue] = {}
        self._owner_order: list[str] = []
        #: Per-owner FIFO of pending slots, drawn round-robin at flush.
        self._backlog: dict[str, deque[_WireSlot]] = {}
        self._pending_slots: dict[tuple, _WireSlot] = {}
        self._inflight_slots: dict[tuple, _WireSlot] = {}
        self._flush_handle: Optional[EventHandle] = None
        self._drain_handle: Optional[EventHandle] = None
        #: True while a drain step is classifying/dispatching.  A drain
        #: step may run nested event-loop turns (synchronous directory
        #: lookups, fail-safe completion callbacks that submit the next
        #: closed-loop request), during which ``_drain_handle`` is
        #: None; without this guard a flush arriving in that window
        #: would start a second, untracked drain chain and break the
        #: one-envelope-at-a-time pacing.
        self._draining = False
        self._rr_start = 0
        self.flushes_received = 0
        self.requests_ingested = 0
        self.cross_pep_deduplicated = 0
        self.super_batches_sent = 0
        self.flushes_on_size = 0
        self.flushes_on_delay = 0
        self.fairness_deferrals = 0
        self.decisions_delivered = 0
        self._wire = BatchWireCore(
            self,
            WireJob(
                select=self._select_replica,
                deliver=self._deliver_slots,
                fail=self._fail_slots,
                timeout=pdp_timeout,
                channel=self.channel,
                dispatcher=dispatcher,
                on_sent=self._note_super_batch,
            ),
            actions=(BATCH_QUERY_ACTION, SECURE_BATCH_QUERY_ACTION),
            label="gateway",
        )

    # -- registration -------------------------------------------------------------

    def register(self, queue: CoalescingDecisionQueue) -> None:
        """Register one PEP's coalescing queue with this gateway."""
        pep_name = queue.pep.name
        if pep_name not in self._queues:
            self._owner_order.append(pep_name)
            self._backlog[pep_name] = deque()
        self._queues[pep_name] = queue

    @property
    def registered_peps(self) -> list[str]:
        return list(self._owner_order)

    @property
    def pending_count(self) -> int:
        return len(self._pending_slots)

    @property
    def _inflight(self) -> dict[int, _InflightEnvelope]:
        return self._wire._inflight

    @property
    def inflight_count(self) -> int:
        return self._wire.inflight_count

    @property
    def failovers(self) -> int:
        return self._wire.failovers

    # -- ingestion ----------------------------------------------------------------

    def ingest(
        self, queue: CoalescingDecisionQueue, entries: list[_PendingDecision]
    ) -> None:
        """Merge one PEP queue flush into the gateway backlog.

        Each entry either joins an existing slot for the same request
        identity — pending *or* already on the wire — or opens a new
        pending slot attributed to the contributing PEP.
        """
        if queue.pep.name not in self._queues:
            self.register(queue)
        self.flushes_received += 1
        self.requests_ingested += len(entries)
        for entry in entries:
            slot = self._pending_slots.get(entry.cache_key)
            if slot is None:
                slot = self._inflight_slots.get(entry.cache_key)
                if slot is not None and entry.trace is not None:
                    # Joining a slot already on the wire: this entry's
                    # wire phase starts now (it only waits the envelope
                    # remainder), not at the envelope's original send.
                    entry.trace.mark_first("sent", self.now)
                    entry.trace.set("joined_in_flight", True)
            if slot is not None:
                self.cross_pep_deduplicated += 1
                slot.entries.append(entry)
                continue
            slot = _WireSlot(
                request=entry.request,
                cache_key=entry.cache_key,
                owner=queue.pep.name,
                entries=[entry],
            )
            self._pending_slots[entry.cache_key] = slot
            self._backlog[slot.owner].append(slot)
        if self._drain_handle is not None or self._draining:
            return  # a drain in progress will pick the new slots up
        if len(self._pending_slots) >= self.max_batch:
            self.flushes_on_size += 1
            self.flush()
        elif self._pending_slots and self._flush_handle is None:
            self._flush_handle = self.network.loop.schedule(
                self.max_delay, self._flush_on_delay, label="gateway-flush"
            )

    def _flush_on_delay(self) -> None:
        self._flush_handle = None
        if self._pending_slots:
            self.flushes_on_delay += 1
            self.flush()

    # -- super-batching -----------------------------------------------------------

    def flush(self) -> None:
        """Start draining the backlog as capped super-batches.

        The drain is *paced*: one envelope goes out now, the next when
        the first has finished serialising onto the wire (its size over
        the egress link's bandwidth).  A real gateway writes envelopes
        to its socket sequentially; emitting them all at the same
        instant would let the simulator's per-message delivery model
        reorder small envelopes ahead of large ones.
        """
        if self._flush_handle is not None:
            self.network.loop.cancel(self._flush_handle)
            self._flush_handle = None
        if self._drain_handle is None and not self._draining:
            self._drain_step()

    def _drain_step(self) -> None:
        self._drain_handle = None
        if not self._pending_slots:
            return
        slots = self._take_super_batch()
        for slot in slots:  # stays put until completion/failure
            self._inflight_slots[slot.cache_key] = slot
        self._draining = True
        try:
            tx_time = self._dispatch_slots(slots)
        finally:
            self._draining = False
        # Slots that arrived while dispatching (nested loop turns) were
        # deferred to us: this reschedule is what picks them up.
        if self._pending_slots:
            self._drain_handle = self.network.loop.schedule(
                tx_time, self._drain_step, label="gateway-drain"
            )

    def _dispatch_slots(self, slots: list[_WireSlot]) -> float:
        """Put one drawn super-batch on the wire; returns its tx time.

        The federated gateway overrides this to classify slots by
        governing domain first (local PDP tier vs gateway→gateway
        forwarding); the base gateway sends everything to the local
        replica set.
        """
        return self._send_local(slots)

    def _send_local(self, slots: list[_WireSlot]) -> float:
        """Send slots to the local replica set, shard-partitioned.

        With a placement-aware dispatcher the super-batch is split into
        one envelope per owning replica; otherwise it travels whole.
        Returns the summed serialisation time (the pacing figure the
        drain loop waits on), matching a gateway writing the envelopes
        to its socket back to back.
        """
        if self.dispatcher.placement is None:
            return self._wire.send(slots)
        tx_time = 0.0
        for target, group in self.dispatcher.partition(
            slots, lambda slot: slot.request
        ):
            job = replace(
                self._wire.job, select=self.dispatcher.selector_for(target)
            )
            tx_time += self._wire.send(group, job=job)
        return tx_time

    def _take_super_batch(self) -> list[_WireSlot]:
        """Draw the next super-batch fairly from the per-PEP backlogs.

        Slots are taken one at a time round-robin across registered
        PEPs (oldest first within each PEP), so every backlogged PEP is
        represented before any PEP is represented twice.  A PEP stops
        contributing at ``fairness_cap``; whatever it still has queued
        waits for a later super-batch (counted as a deferral when the
        cap — not an empty backlog — is what stopped it).
        """
        taken: list[_WireSlot] = []
        taken_per_owner: dict[str, int] = {}
        owners = [
            self._owner_order[(self._rr_start + i) % len(self._owner_order)]
            for i in range(len(self._owner_order))
        ]
        self._rr_start += 1
        capped_owners: set[str] = set()
        progressed = True
        while len(taken) < self.max_batch and progressed:
            progressed = False
            for owner in owners:
                if len(taken) >= self.max_batch:
                    break
                backlog = self._backlog[owner]
                if not backlog:
                    continue
                if (
                    self.fairness_cap is not None
                    and taken_per_owner.get(owner, 0) >= self.fairness_cap
                ):
                    capped_owners.add(owner)
                    continue
                slot = backlog.popleft()
                del self._pending_slots[slot.cache_key]
                taken.append(slot)
                taken_per_owner[owner] = taken_per_owner.get(owner, 0) + 1
                progressed = True
        self.fairness_deferrals += sum(
            len(self._backlog[owner]) for owner in capped_owners
        )
        return taken

    # -- the wire (BatchWireCore variation points) ---------------------------------

    def _select_replica(self, exclude: Sequence[str]) -> Optional[str]:
        return self.dispatcher.select(exclude=exclude)

    def _note_super_batch(self, slots: list[_WireSlot]) -> None:
        self.super_batches_sent += 1
        self.network.metrics.record_sample(SUPER_BATCH_SERIES, len(slots))

    def _deliver_slots(self, slots: list[_WireSlot], statements: Sequence) -> None:
        for slot, statement in zip(slots, statements, strict=False):
            self._inflight_slots.pop(slot.cache_key, None)
            for entry in slot.entries:
                self.decisions_delivered += 1
                entry.owner._complete_entry(entry, statement)

    def _fail_slots(self, slots: list[_WireSlot], exc: Exception) -> None:
        for slot in slots:
            self._inflight_slots.pop(slot.cache_key, None)
            for entry in slot.entries:
                entry.owner._fail_entry(entry, exc)

    def __repr__(self) -> str:
        return (
            f"DomainDecisionGateway({self.name}, "
            f"peps={len(self._queues)}, pending={len(self._pending_slots)}, "
            f"inflight={self.inflight_count})"
        )
