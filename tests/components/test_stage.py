"""The one batching stage: its contract alone, then the three drains.

:class:`~repro.components.BatchingStage` is what the per-PEP queue, the
gateway backlog and the per-peer forward buffers share.  The state
machine drives a bare stage (no PEP, no network) against a plain-dict
model; the example tests pin what each tier's *drain* — the only
per-tier code — does at its awkward moment.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.components import (
    BatchingStage,
    DecisionDispatcher,
    FederatedGateway,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    Slot,
)
from repro.simnet import Network
from repro.simnet.events import EventLoop
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    permit_rule,
)

MAX_BATCH = 4
MAX_DELAY = 1.0

keys = st.integers(min_value=0, max_value=9)


class StageMachine(RuleBasedStateMachine):
    """offer / join / size, delay and explicit flush / settle / fail.

    The drain under test takes the ``chunk`` oldest pending slots per
    step and, when slots remain, holds the stage (``draining``) until
    :meth:`continue_drain` — a chunk of 100 is the queue's single shot,
    a small one the gateway's paced drain.
    """

    @initialize(chunk=st.sampled_from([1, 2, 100]))
    def build(self, chunk):
        self.chunk = chunk
        self.loop = EventLoop()
        self.stage = BatchingStage(
            self.loop,
            MAX_BATCH,
            MAX_DELAY,
            drain=self.drain,
            complete=self.answer,
            deny=self.answer,
        )
        #: The model: key -> waiter ids, in insertion order.
        self.pending: dict[int, list[int]] = {}
        self.inflight: dict[int, list[int]] = {}
        self.draining = False
        self.on_size = 0
        self.on_delay = 0
        self.other_drains = 0  # explicit flushes and continued steps
        self.drain_calls = 0
        self.waiters = 0
        self.answers: dict[int, list] = {}

    # -- the tier's three callables -------------------------------------------

    def drain(self):
        self.drain_calls += 1
        oldest = list(self.stage.pending.values())[: self.chunk]
        taken = self.stage.take(oldest)
        assert taken == oldest
        self.stage.draining = bool(self.stage.pending)

    def answer(self, slot, outcome):
        for waiter in slot.waiters:
            self.answers.setdefault(waiter, []).append(outcome)

    # -- the model's drain ----------------------------------------------------

    def model_drain(self):
        for key in list(self.pending)[: self.chunk]:
            self.inflight[key] = self.pending.pop(key)
        self.draining = bool(self.pending)

    # -- rules ----------------------------------------------------------------

    @rule(key=keys)
    def offer(self, key):
        """Join the slot waiting or in flight for the key, else open one."""
        waiter = self.waiters
        self.waiters += 1
        slot = self.stage.join(key)
        if slot is not None:
            slot.waiters.append(waiter)
            (self.pending.get(key) or self.inflight[key]).append(waiter)
            return
        assert key not in self.pending and key not in self.inflight
        self.stage.open(Slot(request=None, key=key, owner="lane", waiters=[waiter]))
        self.stage.trigger()
        self.pending[key] = [waiter]
        if not self.draining and len(self.pending) >= MAX_BATCH:
            self.on_size += 1
            self.model_drain()

    @rule()
    def wait_out_the_delay(self):
        self.loop.run(until=self.loop.now + MAX_DELAY)
        if self.pending and not self.draining:
            self.on_delay += 1
            self.model_drain()

    @rule()
    def explicit_flush(self):
        self.stage.flush()
        if not self.draining:
            self.other_drains += 1
            self.model_drain()

    @precondition(lambda self: self.draining)
    @rule()
    def continue_drain(self):
        """What a paced drain's rescheduled step does."""
        self.stage.draining = False
        self.stage.drain()
        self.other_drains += 1
        self.model_drain()

    @precondition(lambda self: self.inflight)
    @rule(data=st.data(), fails=st.booleans())
    def settle(self, data, fails):
        """An envelope's worth of in-flight slots is answered or fails."""
        chosen = data.draw(
            st.lists(
                st.sampled_from(sorted(self.inflight)), min_size=1, unique=True
            )
        )
        slots = [self.stage.inflight[key] for key in chosen]
        if fails:
            self.stage.fail(slots, RuntimeError("no PDP reachable"))
        else:
            self.stage.deliver(slots, [f"statement-{key}" for key in chosen])
        for key in chosen:
            del self.inflight[key]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def stage_matches_the_model(self):
        stage = self.stage
        assert {k: s.waiters for k, s in stage.pending.items()} == self.pending
        assert {k: s.waiters for k, s in stage.inflight.items()} == self.inflight
        assert list(stage.pending) == list(self.pending)  # oldest first
        assert stage.draining == self.draining

    @invariant()
    def a_key_is_never_pending_and_in_flight_at_once(self):
        assert not set(self.stage.pending) & set(self.stage.inflight)

    @invariant()
    def every_waiter_completes_exactly_once(self):
        waiting = [
            waiter
            for slots in (self.pending, self.inflight)
            for waiters in slots.values()
            for waiter in waiters
        ]
        assert sorted(waiting + list(self.answers)) == list(range(self.waiters))
        assert all(len(outcomes) == 1 for outcomes in self.answers.values())

    @invariant()
    def timer_armed_iff_window_open_and_no_drain_pending(self):
        armed = self.loop.pending == 1  # nothing else schedules on this loop
        assert armed == (bool(self.pending) and not self.draining)
        assert self.loop.pending <= 1

    @invariant()
    def flush_counters_equal_the_drains_they_triggered(self):
        assert self.stage.flushes_on_size == self.on_size
        assert self.stage.flushes_on_delay == self.on_delay
        assert self.drain_calls == self.on_size + self.on_delay + self.other_drains


StageMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestStage = StageMachine.TestCase


# -- the three drains ---------------------------------------------------------------


def request(index: int, resource: str = "doc") -> RequestContext:
    return RequestContext.simple("alice", f"{resource}-{index}", "read")


def test_queue_drain_reentrant_submit_opens_a_window_with_its_own_timer():
    """Single shot: a fail-safe completion that resubmits while the flush
    is on the stack is not swept into it and not lost — it waits in a
    fresh window whose delay timer is armed."""
    network = Network(seed=5)
    pep = PolicyEnforcementPoint("pep", network)  # no PDP: sends fail safe
    queue = pep.enable_batching(max_batch=8, max_delay=0.5)
    done = []

    def resubmit_once(result):
        done.append(result)
        if len(done) == 1:
            pep.submit(request(2), done.append)

    pep.submit(request(1), resubmit_once)
    queue.flush()
    assert [result.source for result in done] == ["fail-safe"]
    assert queue.pending_count == 1
    assert (queue.flushes_on_size, queue.flushes_on_delay) == (0, 0)
    network.run(until=network.now + 0.5)
    assert [result.source for result in done] == ["fail-safe"] * 2
    assert queue.pending_count == 0
    assert (queue.flushes_on_size, queue.flushes_on_delay) == (0, 1)


def test_gateway_drain_defers_reentrant_ingest_to_its_next_step():
    """Paced and repeated: a flush that arrives while a drain step is on
    the stack joins the backlog of the *same* drain chain — no second
    size trigger, no second chain."""
    network = Network(seed=6)
    PolicyDecisionPoint("pdp", network)
    gateway = FederatedGateway(
        "gateway",
        network,
        DecisionDispatcher(["pdp"]),
        domain="here",
        resolve_domain=lambda requests, then: then(  # fails safe in the step
            ["nowhere" for request in requests]
        ),
        max_batch=1,
        max_delay=0.5,
    )
    pep = PolicyEnforcementPoint("pep", network, domain="here")
    pep.enable_batching(max_batch=1, max_delay=0.5, gateway=gateway)
    done = []

    def resubmit_once(result):
        done.append(result)
        if len(done) == 1:
            pep.submit(request(2), done.append)

    pep.submit(request(1), resubmit_once)
    # The first slot size-flushed the gateway and failed safe inside the
    # drain step; the resubmission was ingested under that step.
    assert len(done) == 1
    assert gateway.flushes_received == 2
    assert gateway.pending_count == 1
    assert gateway.flushes_on_size == 1
    network.run(until=network.now + 0.1)  # well inside max_delay
    assert len(done) == 2
    assert gateway.pending_count == 0
    assert (gateway.flushes_on_size, gateway.flushes_on_delay) == (1, 0)
    assert gateway.unknown_domain_denials == 2


def test_forward_drain_empties_an_overfull_buffer_as_back_to_back_chunks():
    """Per target domain, unpaced: a forward buffer holding one slot
    that a drain step of two overfills leaves in chunks of the gateway's
    ``max_batch`` (two), 2 + 1 at the same instant, and its slots stay in
    flight at the gateway stage until the peer answers."""
    network = Network(seed=7)
    hubs = {}
    for name in ("west", "east"):
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        pap.publish(
            Policy(
                policy_id=f"{name}-open",
                rules=(permit_rule("all"),),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )
        PolicyDecisionPoint(
            f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
        )
        hubs[name] = FederatedGateway(
            f"gw.{name}",
            network,
            DecisionDispatcher([f"pdp.{name}"]),
            domain=name,
            resolve_domain=lambda requests, then: then(["east" for request in requests]),
            max_batch=2,
            max_delay=0.001,
            forward_delay=60.0,
        )
    hubs["west"].add_peer("east", "gw.east")
    hubs["east"].allow_origin("west", "gw.west")
    pep = PolicyEnforcementPoint(
        "pep", network, domain="west", config=PepConfig(decision_cache_ttl=0.0)
    )
    pep.enable_batching(max_batch=8, max_delay=0.001, gateway=hubs["west"])
    done = []
    west = hubs["west"]
    pep.submit(request(0, "east-doc"), done.append)
    pep.coalescer.flush()
    west.flush()  # one slot: it waits in the forward buffer
    assert west.forwarded_batches_sent == 0
    for index in (1, 2):
        pep.submit(request(index, "east-doc"), done.append)
    sent_at = network.now
    pep.coalescer.flush()
    west.flush()
    assert network.now == sent_at
    assert [len(envelope.items) for envelope in west._wire._inflight.values()] == [2, 1]
    assert (west.forwarded_batches_sent, west.requests_forwarded) == (2, 3)
    # A late identical request from another PEP still joins the
    # forwarded slot instead of travelling again.
    late = PolicyEnforcementPoint("pep-late", network, domain="west")
    late.enable_batching(max_batch=8, max_delay=0.001, gateway=west)
    late.submit(request(0, "east-doc"), done.append)
    late.coalescer.flush()
    assert west.cross_pep_deduplicated == 1
    network.run(until=network.now + 5.0)
    assert [result.granted for result in done] == [True] * 4
    assert west.requests_forwarded == 3
