"""The batched decision fabric: slot → stage → wire core.

Client-side plumbing that turns the one-query-per-message PEP→PDP hot
path into a batched, load-balanced pipeline.  The paper's §3.2 lever —
amortise the per-message cost of the pull model by batching,
deduplicating and caching decisions — is written down once and
instantiated per tier:

* :class:`Slot` — one unique request inside one stage, and whoever
  waits on its answer;
* :class:`BatchingStage` — accumulate → dedup → flush → settle: a
  pending map (the open window), an in-flight map (so identical
  requests keep joining a slot that already left), the size-or-delay
  trigger with its one timer, ``take`` and the fan-out of answers.
  The per-PEP queue, the gateway backlog and each per-peer forward
  buffer are instances; a tier hands the stage only its *drain*;
* :class:`BatchWireCore` — what every drain, and a PEP's
  ``authorize``, sends through: one envelope per owning replica when
  the job's dispatcher carries a placement, the in-flight map, timeout
  failover across replicas (the only re-send in the fabric), sealing
  and reply validation through the job's
  :class:`~repro.components.channel.DecisionChannel`, fail-safe
  fan-out.  A :class:`WireJob` says what one class of envelopes
  carries — a batch query by default, the single-query pull profile
  for ``authorize`` — and where its answers land;
* :class:`DecisionDispatcher` — routes decision traffic across a set of
  PDP replicas under a :class:`RoutingPolicy`; the core asks it for the
  next replica when an envelope times out, which makes E11-style
  replication an actual *throughput* mechanism rather than only an
  availability one.  It is the only way a PEP reaches a PDP: a PEP
  bound to one ``pdp_address`` holds a ring of one.

The three drains are the only per-tier code:

* :class:`CoalescingDecisionQueue` (per PEP) — single shot: everything
  pending leaves as one batch query (or is handed to the gateway);
* :class:`DomainDecisionGateway` (per domain) — at most ``max_batch``
  unique slots per step, drawn round-robin over the registered PEPs
  with an optional fairness cap, paced by the envelopes' serialisation
  time, repeated until the backlog is empty;
* :class:`~repro.components.federation.FederatedGateway` (between
  domains) — per target domain, back-to-back chunks of the gateway's
  ``max_batch``.

Everything is event-driven: drains *send* a message and return, and
replies/timeouts are handled as ordinary inbound events, so a
completion callback may safely submit the next request (the closed-loop
pattern of :mod:`repro.workloads.highload`) without growing the stack.
The one wait is at the top level: ``authorize`` sends like a drain,
then runs the loop until its slot settles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Optional, Protocol, Sequence

from ..observability.tracing import TRACE_HEADER
from ..simnet.events import EventHandle, EventLoop
from ..simnet.message import Message
from ..simnet.network import Network
from ..saml.xacml_profile import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from ..xacml.context import RequestContext
from .base import DEFAULT_TIMEOUT, Component, ComponentIdentity, RpcFault, RpcTimeout
from .channel import DecisionChannel
from .pdp import BATCH_QUERY_ACTION
from .placement import PlacementSpec

#: Metrics sample series fed with per-request submit→completion delays.
QUEUE_LATENCY_SERIES = "fabric.queue_latency"

#: Metrics sample series fed with gateway super-batch sizes (unique
#: requests per envelope).
SUPER_BATCH_SERIES = "fabric.super_batch_size"


def pep_latency_series(pep_name: str) -> str:
    """Per-PEP submit→completion sample series (fairness reporting)."""
    return f"{QUEUE_LATENCY_SERIES}.{pep_name}"


class RoutingPolicy(Protocol):
    """How a :class:`DecisionDispatcher` picks among live replicas.

    A policy is pure selection logic over the dispatcher's bookkeeping
    (replica list, outstanding counters, rotation cursor); the
    dispatcher keeps owning the counters, and the wire core's timeout
    the failover.

    Attributes:
        name: stable identifier (reports and reprs).
    """

    name: str

    def choose(
        self, dispatcher: "DecisionDispatcher", candidates: Sequence[str]
    ) -> Optional[str]:
        """Pick one of ``candidates`` (non-empty, in ring order), or
        None when the policy will send to none of them (fail safe)."""
        ...


class RoundRobinRouting:
    """Rotate through the replica ring regardless of load."""

    name = "round-robin"

    def choose(self, dispatcher, candidates) -> str:
        return dispatcher._rotate(candidates)

    def __repr__(self) -> str:
        return "RoundRobinRouting()"


class LeastOutstandingRouting:
    """Prefer the replica with the fewest in-flight envelopes.

    Only differs from round-robin once replies actually take time —
    i.e. under the PDP service-time model.  Ties rotate, because with
    one decision outstanding (a PEP's ``authorize``) the counts are back
    to zero by the next select and least-outstanding would otherwise pin
    every request to the first replica.
    """

    name = "least-outstanding"

    def choose(self, dispatcher, candidates) -> str:
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
    key's attribute partition.  The placement does the routing — the
    wire core splits every send by owner (:meth:`DecisionDispatcher.
    partition`) and pins each envelope to it (:meth:`DecisionDispatcher.
    selector_for`); what the policy itself picks is where an envelope
    fails over to once its owner timed out, by rotation.
    """

    def __init__(self, placement: PlacementSpec) -> None:
        if not isinstance(placement, PlacementSpec):
            raise ValueError(
                f"ConsistentHashRouting needs a PlacementSpec, got "
                f"{type(placement).__name__}"
            )
        self.placement = placement
        self.name = f"hash-{placement.shard_by}"

    def choose(self, dispatcher, candidates) -> str:
        return dispatcher._rotate(candidates)

    def __repr__(self) -> str:
        return f"ConsistentHashRouting({self.placement.shard_by})"


class HealthyFirstRouting:
    """Route to the first replica, in ring order, that ``healthy`` vouches for.

    The dependable tier's client half (paper §3.2: the PDP is the single
    point of failure of the pull model).  A heartbeat monitor or a
    registry's health marks say which replicas are believed alive; the
    ring order is the preference order.  Detection only orders the
    ring: a replica that crashed before anyone noticed costs one
    timeout, after which the wire core fails over to the next healthy
    replica.  When no candidate is healthy the policy returns None and
    the caller fails safe without sending anything.

    Attributes:
        passed_over: selections that went past the ring head.
    """

    name = "healthy-first"

    def __init__(self, healthy: Callable[[str], bool]) -> None:
        self.healthy = healthy
        self.passed_over = 0

    def choose(self, dispatcher, candidates) -> Optional[str]:
        for address in candidates:
            if self.healthy(address):
                if address != dispatcher.replicas[0]:
                    self.passed_over += 1
                return address
        return None

    def __repr__(self) -> str:
        return "HealthyFirstRouting()"


class DecisionDispatcher:
    """Load-balances decision queries over PDP replicas.

    The dispatcher is transport-neutral bookkeeping: the wire core
    drives :meth:`select` / :meth:`note_sent` / :meth:`note_done` for
    every envelope, asks :meth:`partition` and :meth:`selector_for` to
    split a send by placement owner, and bumps :attr:`failovers` each
    time a timed-out envelope is re-sent to another replica (the final
    timeout, with nobody left to ask, fails safe and is no failover).
    *Which* replica a selection picks is delegated to the
    :class:`RoutingPolicy`.

    Args:
        replica_addresses: the PDP replica ring, in order.
        policy: routing policy object (default: round-robin).  A
            :class:`ConsistentHashRouting` carries the placement that
            makes the tier shard-aware.
    """

    def __init__(
        self,
        replica_addresses: Sequence[str],
        policy: Optional[RoutingPolicy] = None,
    ) -> None:
        if not replica_addresses:
            raise ValueError("dispatcher needs at least one PDP replica")
        if policy is None:
            policy = RoundRobinRouting()
        if not callable(getattr(policy, "choose", None)):
            raise ValueError(
                f"unknown dispatch policy {policy!r}; pass a RoutingPolicy"
            )
        self.replicas = list(replica_addresses)
        self.routing = policy
        self.outstanding: dict[str, int] = {
            address: 0 for address in self.replicas
        }
        self.failovers = 0
        self._rr = 0

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

    def select(self, exclude: Sequence[str] = ()) -> Optional[str]:
        """Pick the next replica, or None when every candidate is
        excluded or the routing policy vouches for none of them."""
        candidates = (
            [r for r in self.replicas if r not in exclude] if exclude else self.replicas
        )
        if not candidates:
            return None
        return self.routing.choose(self, candidates)

    def note_sent(self, address: str) -> None:
        self.outstanding[address] += 1

    def note_done(self, address: str) -> None:
        self.outstanding[address] = max(0, self.outstanding[address] - 1)

    def partition(
        self, slots: list["Slot"]
    ) -> list[tuple[Optional[str], list["Slot"]]]:
        """Group ``slots`` by owning replica under the placement.

        The wire core calls this before putting envelopes on the wire
        so one send becomes one envelope *per owner* instead of one
        envelope aimed wherever the load balancer points.  Without a
        placement everything stays in a single group with no owner
        (``None``).  Groups preserve first-seen owner order and
        intra-group slot order, so decisions still come back in a
        deterministic order.
        """
        placement = self.placement
        if placement is None:
            return [(None, slots)]
        groups: dict[str, list[Slot]] = {}
        for slot in slots:
            groups.setdefault(placement.owner_of(slot.request), []).append(slot)
        return list(groups.items())

    def selector_for(
        self, owner: str
    ) -> Callable[[Sequence[str]], Optional[str]]:
        """A select callable pinned to ``owner`` with rotation failover.

        The ``WireJob.select`` of one envelope of a partitioned send:
        the first attempt goes to the owning replica, a timeout fails
        over through the ordinary selection (the owner lands in
        ``exclude``).
        """

        def select(exclude: Sequence[str] = ()) -> Optional[str]:
            if owner in self.replicas and owner not in exclude:
                return owner
            return self.select(exclude=exclude)

        return select

    def __repr__(self) -> str:
        return (
            f"DecisionDispatcher({self.routing.name}, "
            f"replicas={len(self.replicas)}, "
            f"outstanding={sum(self.outstanding.values())})"
        )


#: Completion callback: receives the waiter's EnforcementResult.
CompletionCallback = Callable[[object], None]


# -- slot and stage: the one accumulate → dedup → flush → settle ----------------------


@dataclass(slots=True)
class Slot:
    """One unique request inside one stage, and whoever waits on it.

    Attributes:
        request: the decision request; what the wire core batches.
        key: the dedup key in the stage holding the slot.  The per-PEP
            queue scopes it by the PEP's (domain, name) identity —
            ``key[1]`` is the bare request identity the decision cache
            and the gateway tier key on — so two PEPs' lookalike
            requests can never collide in shared bookkeeping; a
            serving-side slot uses its index in the forwarded batch.
        owner: the fairness lane — the name of the PEP that (first)
            contributed the slot; at the gateway tier it also finds the
            queue that enforces each waiting entry.
        waiters: who gets the answer: completion callbacks at the queue
            tier, the queue-tier slots sharing this wire slot at the
            gateway tier (cross-PEP dedup).
        enqueued_at: submit time (queue tier; feeds the latency series).
        trace: sampled decision-path trace
            (``observability.DecisionTrace``); ``None`` when tracing is
            off or this decision was not sampled.
    """

    request: RequestContext
    key: object
    owner: str
    waiters: list = field(default_factory=list)
    enqueued_at: float = 0.0
    trace: Optional[object] = None

    def traces(self) -> Iterator[object]:
        """Sampled decision traces riding this slot: its own, or those
        of the slots waiting on it."""
        if self.trace is not None:
            yield self.trace
        for waiter in self.waiters:
            if isinstance(waiter, Slot) and waiter.trace is not None:
                yield waiter.trace


class BatchingStage:
    """Accumulate → dedup → flush → settle, once for every tier.

    A stage owns what the per-PEP queue, the gateway backlog and the
    per-peer forward buffers share: the *window* of pending slots, the
    map of slots in flight (identical requests join a slot in either),
    the size-or-delay trigger with its single timer and its
    ``flushes_on_size`` / ``flushes_on_delay`` counters, ``take``
    (pending → in flight) and the fan-out that settles slots (in flight
    → gone) when their envelope is answered or fails.  What differs per
    tier stays in the tier, as three callables.

    Args:
        loop: the event loop the delay timer runs on.
        max_batch: trigger a flush as soon as this many slots wait.
        max_delay: trigger a flush this many simulated seconds after a
            slot entered an empty window (latency bound).
        drain: the tier's drain — take pending slots and send them.
            Called on every flush unless :attr:`draining` is set.
        complete: answer one slot's waiters with a decision statement.
        deny: fail one slot's waiters safe with an exception.

    Attributes:
        draining: set by a drain that continues past the current call
            (a paced, rescheduled drain, or a step waiting for its
            slots' resolution).  While set, triggers and :meth:`flush`
            leave the window alone — the drain chain picks new slots up
            — so a flush that arrives meanwhile, or from a completion
            the step runs inline, cannot start a second chain.
    """

    def __init__(
        self,
        loop: EventLoop,
        max_batch: int,
        max_delay: float,
        drain: Callable[[], None],
        complete: Callable[[Slot, object], None],
        deny: Callable[[Slot, Exception], None],
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.loop = loop
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.drain = drain
        self.complete = complete
        self.deny = deny
        self.pending: dict[object, Slot] = {}
        self.inflight: dict[object, Slot] = {}
        self.draining = False
        self._timer: Optional[EventHandle] = None
        self.flushes_on_size = 0
        self.flushes_on_delay = 0

    def downstream(
        self, max_batch: int, max_delay: float, drain: Callable[[], None]
    ) -> "BatchingStage":
        """A second window for slots already in flight in this stage.

        The per-peer forward buffers: their slots were taken here, stay
        in *this* stage's in-flight map while they wait again (late
        identical requests still join them — the buffer deepens the
        dedup window rather than bypassing it) and settle here.
        """
        stage = BatchingStage(
            self.loop, max_batch, max_delay, drain, self.complete, self.deny
        )
        stage.inflight = self.inflight
        return stage

    # -- accumulate ----------------------------------------------------------------

    def join(self, key: object) -> Optional[Slot]:
        """The slot already pending or in flight for ``key``, if any."""
        return self.pending.get(key) or self.inflight.get(key)

    def open(self, slot: Slot) -> None:
        """Add a new slot to the window (call :meth:`trigger` after)."""
        self.pending[slot.key] = slot

    def trigger(self) -> None:
        """Size-or-delay: flush a full window now, else keep the delay
        timer armed while the window is non-empty."""
        if self.draining or not self.pending:
            return
        if len(self.pending) >= self.max_batch:
            self.flushes_on_size += 1
            self.flush()
        elif self._timer is None:
            self._timer = self.loop.schedule(self.max_delay, self._on_delay)

    def _on_delay(self) -> None:
        self._timer = None
        if self.pending:
            self.flushes_on_delay += 1
            self.flush()

    # -- flush ---------------------------------------------------------------------

    def flush(self) -> None:
        """Drain now: cancel the delay timer and run the tier's drain."""
        if self._timer is not None:
            self.loop.cancel(self._timer)
            self._timer = None
        if not self.draining:
            self.drain()

    def take(self, slots: Optional[list[Slot]] = None) -> list[Slot]:
        """Pending → in flight, for ``slots`` (default: the whole window).

        Taken slots stay in flight until settled, so later identical
        requests still join them.
        """
        if slots is None:
            slots = list(self.pending.values())
        for slot in slots:
            del self.pending[slot.key]
            self.inflight[slot.key] = slot
        return slots

    # -- settle --------------------------------------------------------------------

    def resolve(self, slot: Slot, statement) -> None:
        """In flight → gone: answer one slot's waiters."""
        self.inflight.pop(slot.key, None)
        self.complete(slot, statement)

    def reject(self, slot: Slot, exc: Exception) -> None:
        """In flight → gone: fail one slot's waiters safe."""
        self.inflight.pop(slot.key, None)
        self.deny(slot, exc)

    def deliver(self, slots: list[Slot], statements: Sequence) -> None:
        """Fan a validated statement list out (a ``WireJob.deliver``)."""
        for slot, statement in zip(slots, statements, strict=False):
            self.resolve(slot, statement)

    def fail(self, slots: list[Slot], exc: Exception) -> None:
        """Fan one exception out (a ``WireJob.fail``)."""
        for slot in slots:
            self.reject(slot, exc)


# -- the shared wire core ----------------------------------------------------------


def batch_query(items: list["Slot"], sender: Component) -> XacmlAuthzDecisionBatchQuery:
    """One transmit attempt's batch query over the items' requests,
    issued by ``sender`` now, with ids its world mints."""
    issuer, instant, mint = sender.name, sender.now, sender.network.mint
    return XacmlAuthzDecisionBatchQuery(
        queries=tuple(
            XacmlAuthzDecisionQuery(
                request=item.request,
                issuer=issuer,
                issue_instant=instant,
                query_id=mint("xacmlq"),
            )
            for item in items
        ),
        issuer=issuer,
        issue_instant=instant,
        batch_id=mint("xacmlb"),
    )


def _batch_body(items: list["Slot"], sender: Component) -> tuple[str, str, str]:
    """The default envelope body: the batch query itself, PDP-bound."""
    batch = batch_query(items, sender)
    return batch.batch_id, BATCH_QUERY_ACTION, batch.to_xml()


def _open_batch(
    channel: DecisionChannel,
    reply: Message,
    replica: str,
    exchange_id: str,
    count: int,
) -> Sequence:
    """The default reply: one batch statement answering the batch sent."""
    return channel.open_batch_reply(reply, replica, exchange_id, count).statements


def no_replica(tried: Sequence[str]) -> Optional[str]:
    """The select of a PEP bound to no PDP: every send fails safe."""
    return None


@dataclass
class WireJob:
    """How one class of envelopes travels: the core's variation points.

    A tier configures a default job at construction; sends may override
    it per envelope (the federated gateway uses that to aim the same
    core at local replicas, peer gateways and remote replica sets, and a
    PEP to send its pull queries and its queue's batches through one
    core).  Every in-flight :class:`Slot` carries its ``request``; the
    job's ``encode`` writes the query over those, and the job's channel
    seals it and opens the reply — signature policy lives there, not in
    per-tier callbacks.

    Attributes:
        select: pick the next destination given the already-tried list;
            None means every candidate is exhausted (fail-safe).
        deliver: fan a validated statement list out to the slots.
        fail: fan one exception out to the slots (fail-safe deny).
        timeout: per-attempt reply deadline in simulated seconds.
        channel: the sending component's decision channel.
        encode: write one transmit attempt's query over the slots'
            requests, given the sending component (the issuer, the
            instant and the world that mints the ids), as ``(exchange
            id, base action, body)``.  The default is one batch query;
            the federated gateway wraps forwards here, and a PEP's pull
            job writes the single-query profile.  Called per attempt, so
            a failover re-send carries a fresh id.
        open: the reply, opened by the job's channel into one statement
            per slot: ``(channel, reply, replica, exchange id, slot
            count)``; it checks the reply answers the exchange id.
        dispatcher: optional dispatcher whose outstanding counters and
            failover tally this job maintains — and whose placement,
            when it carries one, splits every send into one envelope
            per owning replica.
        on_sent: called with the slots after each transmit attempt
            (per-tier counters and sample series).
    """

    select: Callable[[Sequence[str]], Optional[str]]
    deliver: Callable[[list, Sequence], None]
    fail: Callable[[list, Exception], None]
    timeout: float
    channel: DecisionChannel
    encode: Callable[[list, Component], tuple[str, str, str]] = _batch_body
    open: Callable[[DecisionChannel, Message, str, str, int], Sequence] = (
        _open_batch
    )
    dispatcher: Optional[DecisionDispatcher] = None
    on_sent: Optional[Callable[[list], None]] = None


@dataclass(slots=True)
class _InflightEnvelope:
    """One envelope on the wire, awaiting its reply or deadline."""

    exchange_id: str
    items: list[Slot]
    replica: str
    tried: list[str]
    job: WireJob
    #: Open envelope span for this transmit attempt, and the serving
    #: hop's trace context it parents under (tracing only).
    trace: Optional[object] = None
    parent: Optional[object] = None
    #: The request message: the ask the component settles it by.
    msg_id: int = 0


class BatchWireCore:
    """The shared send/in-flight/failover machinery of every tier.

    Owns exactly the pieces the tiers used to carry privately: shard
    partitioning (one envelope per owning replica), the record of what
    is in flight (msg_id → envelope), timeout failover across replicas
    — the only re-send anywhere in the fabric — reply validation (the
    job channel's signature, exchange id and statement count checks)
    and fail-safe fan-out on faults, forged replies and replica
    exhaustion.  Every envelope is a :meth:`Component.ask`: the
    component matches the reply, the fault or the deadline to it and
    runs the core's continuation.

    The core is deliberately policy-free: *what* travels, *where* it
    may go and *how* results land stay with the owning tier through its
    :class:`WireJob`.  A core built without a default job (a PEP's)
    takes one with every send.
    """

    def __init__(self, component: Component, job: Optional[WireJob] = None) -> None:
        self.component = component
        self.job = job
        self._inflight: dict[int, _InflightEnvelope] = {}
        self.failovers = 0

    # -- sending ------------------------------------------------------------------

    def send(
        self,
        items: list[Slot],
        job: Optional[WireJob] = None,
        parent: Optional[object] = None,
    ) -> float:
        """Put ``items`` on the wire; returns their serialisation time.

        A job whose dispatcher carries a placement becomes one envelope
        per owning replica, each pinned to its owner (timeouts still
        fail over through ordinary rotation); any other job is one
        envelope.  The return value (message bytes over the egress
        link's bandwidth, summed — envelopes are written to the socket
        back to back) is what a paced drain waits before emitting the
        next envelope.  Where every destination is exhausted the items
        fail safe immediately and contribute 0.0.  ``parent`` is the
        trace context the envelope spans parent under (a serving hop).
        """
        job = job if job is not None else self.job
        dispatcher = job.dispatcher
        groups = [(None, items)] if dispatcher is None else dispatcher.partition(items)
        tx_time = 0.0
        for owner, group in groups:
            pinned = (
                job
                if owner is None
                else replace(job, select=dispatcher.selector_for(owner))
            )
            replica = pinned.select(())
            if replica is None:
                pinned.fail(
                    group,
                    RpcTimeout(
                        self.component.name, "<none>", "no PDP reachable",
                        self.component.now,
                    ),
                )
            else:
                tx_time += self._transmit(replica, group, [], pinned, parent)
        return tx_time

    def _transmit(
        self,
        replica: str,
        items: list[Slot],
        tried: list[str],
        job: WireJob,
        parent: Optional[object],
    ) -> float:
        component = self.component
        # Written per transmit attempt: a failover re-send gets a fresh
        # exchange id and a fresh signature.
        exchange_id, base, body = job.encode(items, component)
        action, payload = job.channel.seal(base, body)
        inflight = _InflightEnvelope(
            exchange_id=exchange_id,
            items=items,
            replica=replica,
            tried=tried + [replica],
            job=job,
            parent=parent,
        )
        headers = {}
        tracer = component.network.tracer
        if tracer.enabled:
            # The context rides the message *headers* — outside the
            # size model, like a traceparent header — so tracing never
            # changes envelope bytes, counts or pacing.
            inflight.trace = tracer.envelope_sent(
                component,
                items,
                batch_id=exchange_id,
                kind=action,
                replica=replica,
                attempt=len(tried) + 1,
                parent=parent,
            )
            headers[TRACE_HEADER] = inflight.trace.context.header()
        if job.dispatcher is not None:
            job.dispatcher.note_sent(replica)
        if job.on_sent is not None:
            job.on_sent(items)
        on_reply, on_error = partial(self._on_reply, inflight), partial(self._on_error, inflight)
        message = component.ask(replica, action, payload, on_reply, on_error, job.timeout, headers)
        inflight.msg_id = message.msg_id
        self._inflight[message.msg_id] = inflight
        link = component.network.link_between(component.name, replica)
        return message.size_bytes / link.bandwidth

    # -- replies, faults, deadlines ----------------------------------------------

    def _take(self, inflight: _InflightEnvelope) -> None:
        del self._inflight[inflight.msg_id]
        if inflight.job.dispatcher is not None:
            inflight.job.dispatcher.note_done(inflight.replica)

    def _done(self, inflight: _InflightEnvelope, outcome: str) -> None:
        """Close the envelope's span (nothing when it is untraced).  The
        reply path, run on every answered envelope, calls it only for a
        traced one."""
        self.component.network.tracer.envelope_done(inflight.trace, inflight.items, outcome)

    def _on_reply(self, inflight: _InflightEnvelope, message: Message) -> None:
        self._take(inflight)
        job = inflight.job
        try:
            statements = job.open(
                job.channel,
                message,
                inflight.replica,
                inflight.exchange_id,
                len(inflight.items),
            )
        except Exception as exc:  # malformed/forged reply: fail safe
            self._done(inflight, "reply-rejected")
            job.fail(inflight.items, exc)
            return
        if inflight.trace is not None:
            self._done(inflight, "ok")
        job.deliver(inflight.items, statements)

    def _on_error(self, inflight: _InflightEnvelope, exc: Exception) -> None:
        self._take(inflight)
        job = inflight.job
        if isinstance(exc, RpcFault):
            # A fault is an answer, not a crash: no failover, fail-safe deny.
            self._done(inflight, "fault")
            job.fail(inflight.items, exc)
            return
        replica = job.select(inflight.tried)
        if replica is None:
            self._done(inflight, "exhausted")
            job.fail(
                inflight.items,
                RpcTimeout(
                    self.component.name,
                    inflight.replica,
                    "decision query",
                    self.component.now,
                ),
            )
            return
        self.failovers += 1
        if job.dispatcher is not None:
            job.dispatcher.failovers += 1
        self._done(inflight, "timeout")
        self._transmit(
            replica, inflight.items, inflight.tried, job, inflight.parent
        )

    def abandon(self, destination: str, exc: Exception) -> None:
        """Fail safe every envelope in flight to ``destination``; a reply
        that arrives for one later is dropped like a late reply."""
        for inflight in list(self._inflight.values()):
            if inflight.replica == destination:
                self.component.forget(inflight.msg_id)
                self._take(inflight)
                self._done(inflight, "abandoned")
                inflight.job.fail(inflight.items, exc)

    def __repr__(self) -> str:
        return (
            f"BatchWireCore({self.component.name}, "
            f"inflight={len(self._inflight)})"
        )


class _StagedTier:
    """What a tier built from one stage and one wire core exposes."""

    _stage: BatchingStage
    _wire: BatchWireCore

    @property
    def pending_count(self) -> int:
        """Unique requests waiting in the tier's window."""
        return len(self._stage.pending)

    @property
    def flushes_on_size(self) -> int:
        return self._stage.flushes_on_size

    @property
    def flushes_on_delay(self) -> int:
        return self._stage.flushes_on_delay

    @property
    def inflight_count(self) -> int:
        """Envelopes on the wire awaiting a reply or a deadline."""
        return len(self._wire._inflight)

    @property
    def failovers(self) -> int:
        return self._wire.failovers

    def flush(self) -> None:
        """Drain the tier's window now instead of waiting for the size
        or delay trigger (a drain already in progress picks it up)."""
        self._stage.flush()


class CoalescingDecisionQueue(_StagedTier):
    """Client-side request coalescing in front of a PEP's PDP traffic.

    The per-PEP :class:`BatchingStage`.  Its drain is single shot:
    everything pending leaves at once — as one batch query (one per
    owning shard under a placement-aware dispatcher), or handed to the
    domain gateway.  A submission that arrives while a flush is on the
    stack (a fail-safe completion resubmitting in a closed loop) opens
    a fresh window with its own delay timer.

    Args:
        pep: the owning :class:`~repro.components.pep.
            PolicyEnforcementPoint`; its revocation guard, decision
            cache, obligation handlers, counters and completion all
            apply exactly as on ``authorize``, and its batches go out on
            the PEP's wire core.
        max_batch: flush as soon as this many *unique* requests wait.
        max_delay: flush this many simulated seconds after the first
            request entered an empty queue (latency bound).  Envelopes
            go through the PEP's dispatcher as it is when the queue is
            built; a PEP with none fails every send safe.
        gateway: optional :class:`DomainDecisionGateway`; when given,
            flushes hand their entries to the gateway (the domain's
            shared aggregation point) instead of putting a per-PEP
            envelope on the wire, and the gateway settles them through
            this queue's stage.
    """

    def __init__(
        self,
        pep,
        max_batch: int = 16,
        max_delay: float = 0.002,
        gateway: Optional["DomainDecisionGateway"] = None,
    ) -> None:
        self.pep = pep
        self.gateway = gateway
        self._stage = BatchingStage(
            pep.network.loop,
            max_batch,
            max_delay,
            drain=self._drain,
            complete=self._complete_entry,
            deny=self._fail_entry,
        )
        self.deduplicated = 0
        self.batches_sent = 0
        dispatcher = pep.dispatcher
        self._wire = pep._wire
        self._job = WireJob(
            select=dispatcher.select if dispatcher is not None else no_replica,
            deliver=self._stage.deliver,
            fail=self._stage.fail,
            timeout=pep.config.pdp_timeout,
            channel=pep.channel,
            dispatcher=dispatcher,
            on_sent=self._note_batch_sent,
        )
        if gateway is not None:
            gateway.register(self)

    def scoped_key(self, cache_key: tuple) -> tuple:
        """The PEP/domain-scoped dedup key for one request identity."""
        return (self.pep._scope, cache_key)

    # -- submission --------------------------------------------------------------

    def submit(
        self, request: RequestContext, callback: CompletionCallback
    ) -> bool:
        """Enqueue one enforcement; ``callback`` receives the result.

        Returns True when the request completed synchronously (revocation
        guard denial or decision-cache hit) and False otherwise: queued
        for a batched PDP round-trip, or waiting for an online guard's
        answer.  Identical requests already queued or in flight are
        deduplicated: the new waiter joins the existing wire slot.
        """
        self.pep.enforcements += 1
        cache_key = request.cache_key()
        settled = False

        def proceed(immediate) -> None:
            nonlocal settled
            tracer = self.pep.network.tracer
            if immediate is not None:
                if tracer.enabled:
                    tracer.sync_decision(self.pep, request, immediate)
                callback(immediate)
                settled = True
                return
            key = self.scoped_key(cache_key)
            entry = self._stage.join(key)
            if entry is not None:
                self.deduplicated += 1
                if tracer.enabled:
                    tracer.join_decision(entry.trace)
                entry.waiters.append(callback)
                return
            self._stage.open(
                Slot(
                    request=request,
                    key=key,
                    owner=self.pep.name,
                    waiters=[callback],
                    enqueued_at=self.pep.now,
                    trace=(
                        tracer.begin_decision(self.pep, request)
                        if tracer.enabled
                        else None
                    ),
                )
            )
            self._stage.trigger()

        self.pep._pre_decision(request, cache_key, proceed)
        return settled

    def _drain(self) -> None:
        """Send everything pending as one batch query.

        With a gateway attached the entries are handed to the domain's
        aggregation point instead; they count as in flight here (so
        later identical submissions still join them) and the gateway
        settles each one through this queue's stage.
        """
        entries = self._stage.take()
        if not entries:
            return
        now = self.pep.now
        for entry in entries:
            if entry.trace is not None:
                entry.trace.mark("flush", now)
        if self.gateway is not None:
            # No envelope leaves this queue: the gateway owns the wire
            # (its super_batches_sent counts envelopes; this queue's
            # batches_sent stays a wire-traffic counter and is not
            # incremented for hand-offs).
            self.gateway.ingest(self, entries)
        else:
            self._wire.send(entries, self._job)

    # -- the wire (BatchWireCore variation points) --------------------------------

    def _note_batch_sent(self, entries: list) -> None:
        self.batches_sent += 1

    # -- per-entry completion (the stage's complete / deny) -----------------------

    def _record_latency(self, entry: Slot) -> None:
        delay = self.pep.now - entry.enqueued_at
        metrics = self.pep.network.metrics
        metrics.record_sample(QUEUE_LATENCY_SERIES, delay)
        metrics.record_sample(pep_latency_series(self.pep.name), delay)

    def _complete_entry(self, entry: Slot, statement) -> None:
        """Answer every waiter of ``entry`` through the owning PEP's
        completion — the gateway demultiplexes a shared wire slot into
        one of these calls per contributing PEP."""
        self._record_latency(entry)
        self.pep._complete(entry, statement)

    def _fail_entry(self, entry: Slot, exc: Exception) -> None:
        """Fail every waiter of one entry safe, likewise."""
        self._record_latency(entry)
        self.pep._complete(entry, error=exc)

    def __repr__(self) -> str:
        return (
            f"CoalescingDecisionQueue(pep={self.pep.name}, "
            f"max_batch={self._stage.max_batch}, pending={self.pending_count}, "
            f"inflight={self.inflight_count})"
        )


class DomainDecisionGateway(_StagedTier, Component):
    """Per-domain aggregation point between many PEPs and the PDP tier.

    The coalescing queue amortises per-envelope cost *per PEP*; a
    domain full of PEPs still pays one envelope per PEP per flush.  The
    gateway is the missing tier the paper's multi-domain architecture
    implies: every registered PEP's queue flushes into its
    :class:`BatchingStage`, whose drain merges those flushes into
    super-batches for the shared :class:`DecisionDispatcher` — at most
    ``max_batch`` unique slots per step, one step per envelope's
    serialisation time until the backlog is empty; flushes that arrive
    while a drain is scheduled or on the stack wait for its next step:

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
        identity: key material for the secure channel: a gateway with
            an identity signs super-batch queries and verifies reply
            signatures with it.
        max_batch: flush as soon as this many unique slots are pending;
            also the hard size cap of one super-batch envelope (a flush
            with a larger backlog drains as several envelopes, which
            the dispatcher spreads over replicas).
        max_delay: flush this many simulated seconds after the first
            slot entered an empty backlog (latency bound for merging
            several PEPs' flushes into one envelope).
        fairness_cap: maximum slots one PEP contributes to a single
            super-batch; None disables the cap (round-robin draw only).

    The reply deadline towards the PDP tier, per replica tried, is
    :data:`~repro.components.base.DEFAULT_TIMEOUT`.
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
    ) -> None:
        super().__init__(name, network, domain, identity)
        if dispatcher is None:
            raise ValueError("gateway requires a DecisionDispatcher")
        if fairness_cap is not None and fairness_cap < 1:
            raise ValueError(f"fairness_cap must be >= 1, got {fairness_cap}")
        #: How every envelope this gateway sends (PDP-bound, forwarded)
        #: or serves is sealed and opened.
        self.channel = DecisionChannel(
            self, secure=identity is not None, role="gateway"
        )
        self.dispatcher = dispatcher
        self.fairness_cap = fairness_cap
        self._queues: dict[str, CoalescingDecisionQueue] = {}
        #: Per-owner FIFO of pending slots, in registration order, drawn
        #: round-robin at flush.
        self._backlog: dict[str, deque[Slot]] = {}
        self._stage = BatchingStage(
            network.loop,
            max_batch,
            max_delay,
            drain=self._drain_step,
            complete=self._complete_slot,
            deny=self._fail_slot,
        )
        self._rr_start = 0
        self.flushes_received = 0
        self.cross_pep_deduplicated = 0
        self.super_batches_sent = 0
        self.fairness_deferrals = 0
        self.decisions_delivered = 0
        self._wire = BatchWireCore(
            self,
            WireJob(
                select=dispatcher.select,
                deliver=self._stage.deliver,
                fail=self._stage.fail,
                timeout=DEFAULT_TIMEOUT,
                channel=self.channel,
                dispatcher=dispatcher,
                on_sent=self._note_super_batch,
            ),
        )

    # -- registration -------------------------------------------------------------

    def register(self, queue: CoalescingDecisionQueue) -> None:
        """Register one PEP's coalescing queue with this gateway."""
        self._backlog.setdefault(queue.pep.name, deque())
        self._queues[queue.pep.name] = queue

    # -- ingestion ----------------------------------------------------------------

    def ingest(
        self, queue: CoalescingDecisionQueue, entries: list[Slot]
    ) -> None:
        """Merge one PEP queue flush into the gateway backlog.

        Each entry either joins an existing slot for the same request
        identity — pending *or* already on the wire — or opens a new
        pending slot attributed to the contributing PEP.
        """
        owner = queue.pep.name
        self.flushes_received += 1
        stage = self._stage
        for entry in entries:
            key = entry.key[1]  # the bare request identity: PEP scope off
            slot = stage.join(key)
            if slot is not None:
                if entry.trace is not None and key in stage.inflight:
                    # Joining a slot already on the wire: this entry's
                    # wire phase starts now (it only waits the envelope
                    # remainder), not at the envelope's original send.
                    entry.trace.mark_first("sent", self.now)
                    entry.trace.set("joined_in_flight", True)
                self.cross_pep_deduplicated += 1
                slot.waiters.append(entry)
                continue
            slot = Slot(entry.request, key, owner, [entry])
            stage.open(slot)
            self._backlog[owner].append(slot)
        stage.trigger()

    # -- super-batching -----------------------------------------------------------

    def _drain_step(self) -> None:
        """One step of draining the backlog as capped super-batches.

        The drain is *paced*: one envelope goes out now, the next when
        the first has finished serialising onto the wire (its size over
        the egress link's bandwidth).  A real gateway writes envelopes
        to its socket sequentially; emitting them all at the same
        instant would let the simulator's per-message delivery model
        reorder small envelopes ahead of large ones.  The stage stays
        draining from the draw until the step's continuation runs —
        after a directory lookup, on a federated gateway — so flushes
        arriving meanwhile wait for the next step.
        """
        stage = self._stage
        stage.draining = False  # this step is the drain that was pending
        if not stage.pending:
            return
        slots = self._take_super_batch()
        stage.draining = True
        self._dispatch_slots(slots, self._drained)

    def _drained(self, tx_time: float) -> None:
        """After a step: schedule the next while slots wait."""
        stage = self._stage
        stage.draining = bool(stage.pending)
        if stage.draining:
            self.network.loop.schedule(tx_time, self._drain_step)

    def _dispatch_slots(self, slots: list[Slot], then: Callable[[float], None]) -> None:
        """Put one drawn super-batch on the wire; ``then`` gets its tx
        time.

        The federated gateway overrides this to classify slots by
        governing domain first (local PDP tier vs gateway→gateway
        forwarding); the base gateway sends everything to the local
        replica set.
        """
        then(self._wire.send(slots))

    def _take_super_batch(self) -> list[Slot]:
        """Draw the next super-batch fairly from the per-PEP backlogs.

        Slots are taken one at a time round-robin across registered
        PEPs (oldest first within each PEP), so every backlogged PEP is
        represented before any PEP is represented twice.  A PEP stops
        contributing at ``fairness_cap``; whatever it still has queued
        waits for a later super-batch (counted as a deferral when the
        cap — not an empty backlog — is what stopped it).
        """
        taken: list[Slot] = []
        taken_per_owner: dict[str, int] = {}
        owners = list(self._backlog)
        start = self._rr_start % len(owners)
        owners = owners[start:] + owners[:start]
        self._rr_start += 1
        capped_owners: set[str] = set()
        progressed = True
        while len(taken) < self._stage.max_batch and progressed:
            progressed = False
            for owner in owners:
                if len(taken) >= self._stage.max_batch:
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
                taken.append(backlog.popleft())
                taken_per_owner[owner] = taken_per_owner.get(owner, 0) + 1
                progressed = True
        self.fairness_deferrals += sum(
            len(self._backlog[owner]) for owner in capped_owners
        )
        return self._stage.take(taken)

    # -- the wire (BatchWireCore variation points) ---------------------------------

    def _note_super_batch(self, slots: list[Slot]) -> None:
        self.super_batches_sent += 1
        self.network.metrics.record_sample(SUPER_BATCH_SERIES, len(slots))

    # -- per-slot demultiplexing (the stage's complete / deny) ----------------------

    def _complete_slot(self, slot: Slot, statement) -> None:
        for entry in slot.waiters:
            self.decisions_delivered += 1
            self._queues[entry.owner]._stage.resolve(entry, statement)

    def _fail_slot(self, slot: Slot, exc: Exception) -> None:
        for entry in slot.waiters:
            self._queues[entry.owner]._stage.reject(entry, exc)

    def __repr__(self) -> str:
        return (
            f"DomainDecisionGateway({self.name}, "
            f"peps={len(self._queues)}, pending={self.pending_count}, "
            f"inflight={self.inflight_count})"
        )
