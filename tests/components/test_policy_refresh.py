"""The PDP's policy refresh is single-flight and notice-driven (ISSUE 23).

One query refreshes; every query that reaches the PDP while that refresh
is on the wire is parked and released, in arrival order, when it lands —
so a republish costs one bundle fetch per PDP whatever the load, and no
answer is ever older than the one a fetch-per-query PDP would have
given.  The races (a notice overtaking the bundle with queries parked, a
crash with queries parked, a refresh that fails) live beside PR 20's in
``tests/integration/test_fault_invariants.py``.
"""

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import (
    Component,
    PdpConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
)
from repro.components.pap import parse_change_notice
from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
)
from repro.simnet import Link, Network
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

BATCH = "xacml.request.batch"
RESOURCES = 8
SERVICE_MODEL = {
    "fifo": PdpConfig(envelope_overhead=0.004, decision_service_time=0.001),
    "instant": PdpConfig(),
}


def policies(revision_tag: int):
    """Eight policies, one per resource; each permits exactly the subject
    ``rev-<tag>``, so a decision names the publication it was made under."""
    return [
        Policy(
            policy_id=f"res-{index}-policy",
            rules=(
                permit_rule(
                    "tagged",
                    subject_resource_action_target(subject_id=f"rev-{revision_tag}"),
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id=f"res-{index}"),
        )
        for index in range(RESOURCES)
    ]


@dataclass
class Rig:
    """PAP (8 policies) ← subscribed PDP ← a raw client sending batch
    queries, with the PDP's refresh path instrumented from outside."""

    network: Network
    pap: PolicyAdministrationPoint
    pdp: PolicyDecisionPoint
    client: Component
    tags: int
    published: int = 0
    #: Query message id → (arrival order at the PDP, highest revision a
    #: notice had announced to the PDP when it arrived).
    arrived: dict = field(default_factory=dict)
    #: Reply log, in the order the PDP put replies on the wire:
    #: ``(query message id, instant, kind, payload)``.
    replies: list = field(default_factory=list)
    nesting: int = 0
    worst_nesting: int = 0
    in_flight: int = 0
    worst_in_flight: int = 0

    @classmethod
    def build(cls, config, pap_latency=0.010, client_latency=0.0005, tags=6):
        network = Network(seed=23)
        pap = PolicyAdministrationPoint("pap", network)
        pdp = PolicyDecisionPoint("pdp", network, pap_address="pap", config=config)
        client = Component("client", network)
        network.set_link("pdp", "pap", Link(latency=pap_latency))
        network.set_link("client", "pdp", Link(latency=client_latency))
        rig = cls(network, pap, pdp, client, tags)
        rig.republish()
        pdp.subscribe_to_policy_changes()
        rig._instrument()
        return rig

    def _instrument(self) -> None:
        pdp = self.pdp
        announced = [0]

        def receive(message):
            if message.kind == "pap.changed":
                revision = parse_change_notice(str(message.payload))
                announced[0] = max(announced[0], revision or 0)
            elif message.kind == BATCH:
                self.arrived[message.msg_id] = (len(self.arrived), announced[0])
            pdp._dispatch(message)

        pdp.node.on_message(receive)

        ensure = pdp._ensure_policies

        def nested_ensure():
            self.nesting += 1
            self.worst_nesting = max(self.worst_nesting, self.nesting)
            try:
                ensure()
            finally:
                self.nesting -= 1

        pdp._ensure_policies = nested_ensure

        call = pdp.call

        def counted_call(recipient, kind, payload, **kwargs):
            if recipient != "pap":
                return call(recipient, kind, payload, **kwargs)
            self.in_flight += 1
            self.worst_in_flight = max(self.worst_in_flight, self.in_flight)
            try:
                return call(recipient, kind, payload, **kwargs)
            finally:
                self.in_flight -= 1

        pdp.call = counted_call

        send = pdp.node.send

        def logged_send(message):
            if message.recipient == "client":
                self.replies.append(
                    (message.reply_to, self.network.now, message.kind, message.payload)
                )
            send(message)

        pdp.node.send = logged_send

    def republish(self) -> None:
        """Publish all eight policies again, under the next tag."""
        self.published += 1
        for policy in policies(self.published):
            self.pap.publish(policy)

    def overtake(self, flags) -> None:
        """For the k-th bundle served from now on with ``flags[k]`` set,
        the PAP republishes right after reading it out: the notice of
        the newer revision leaves before the bundle does."""
        pending = list(flags)
        serve = self.pap._handle_retrieve

        def serve_then_republish(message):
            bundle = serve(message)
            if pending and pending.pop(0):
                self.republish()
            return bundle

        self.pap.on("pap.retrieve", serve_then_republish)

    def ask(self, resource: int = 0) -> None:
        """One batch query, one request per publication tag: exactly the
        request of the publication the store holds is permitted."""
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [
                RequestContext.simple(f"rev-{tag}", f"res-{resource}", "read")
                for tag in range(1, self.tags + 1)
            ],
            issuer="client",
            issue_instant=self.network.now,
        )
        self.client.notify("pdp", BATCH, batch.to_xml())

    def ask_at(self, offsets) -> None:
        for index, offset in enumerate(offsets):
            self.network.loop.schedule(
                offset, lambda index=index: self.ask(index % RESOURCES)
            )

    def settle(self, seconds: float = 1.0) -> None:
        self.network.run(until=self.network.now + seconds)

    def decided_under(self, payload) -> int:
        """The publication tag a batch statement was decided under."""
        statements = XacmlAuthzDecisionBatchStatement.from_xml(str(payload)).statements
        permitted = [
            tag
            for tag, statement in enumerate(statements, start=1)
            if statement.response.decision is Decision.PERMIT
        ]
        (tag,) = permitted
        return tag

    def counters(self):
        pdp = self.pdp
        return (pdp.policy_fetches, pdp.revision_probes, pdp.parked_queries)


class TestTheHerd:
    """K queries inside one refresh round trip: one fetch, no probe."""

    K = 12

    @pytest.mark.parametrize("model", ["fifo", "instant"])
    def test_one_fetch_serves_every_query_that_arrived_meanwhile(self, model):
        config = SERVICE_MODEL[model]
        rig = Rig.build(config)
        rig.ask()
        rig.settle()
        assert rig.counters() == (1, 0, 0)
        rig.replies.clear()
        rig.arrived.clear()
        rig.republish()
        rig.settle(0.1)  # all eight notices have landed, nobody has asked yet
        before = rig.counters()
        # 20 ms to the PAP and back; the herd arrives 1 ms apart.
        rig.ask_at([0.001 * index for index in range(self.K)])
        rig.settle()
        fetches, probes, parked = (
            now - then for now, then in zip(rig.counters(), before, strict=True)
        )
        assert (fetches, probes, parked) == (1, 0, self.K - 1)
        assert (rig.worst_nesting, rig.worst_in_flight) == (1, 1)
        assert len(rig.replies) == self.K
        assert {kind for _, _, kind, _ in rig.replies} == {f"{BATCH}:response"}
        assert [rig.decided_under(payload) for *_, payload in rig.replies] == (
            [2] * self.K
        )
        # Replies leave in arrival order ...
        order = [rig.arrived[query][0] for query, *_ in rig.replies]
        assert order == sorted(order) == list(range(self.K))
        # ... and a parked query pays its service time from when the
        # bundle landed, behind the query that fetched it.
        instants = [instant for _, instant, _, _ in rig.replies]
        cost = config.envelope_overhead + rig.tags * config.decision_service_time
        gaps = [later - sooner for sooner, later in zip(instants, instants[1:])]
        assert gaps == pytest.approx([cost] * (self.K - 1))

    def test_no_cache_means_a_fetch_each_but_never_two_at_once(self):
        """``policy_cache_ttl=0`` (E6's baseline) re-fetches per decision:
        parking serialises the fetches, it does not share a bundle the
        configuration says is already stale."""
        rig = Rig.build(PdpConfig(policy_cache_ttl=0.0, refresh_mode="full"))
        rig.ask_at([0.001 * index for index in range(5)])
        rig.settle()
        assert rig.pdp.policy_fetches == 5
        assert (rig.worst_nesting, rig.worst_in_flight) == (1, 1)
        order = [rig.arrived[query][0] for query, *_ in rig.replies]
        assert order == list(range(5))


class TestProbeOrNotice:
    """A notice that named a newer revision *is* the probe's answer; a
    TTL expiry with no such notice still asks."""

    def expired(self, refresh_mode="probe"):
        rig = Rig.build(PdpConfig(policy_cache_ttl=5.0, refresh_mode=refresh_mode))
        rig.ask()
        rig.settle(6.0)
        assert rig.counters() == (1, 0, 0)
        return rig

    def test_ttl_expiry_without_a_notice_probes_once_and_keeps_the_bundle(self):
        rig = self.expired()
        rig.ask()
        rig.settle()
        assert rig.counters() == (1, 1, 0)

    def test_an_announced_revision_is_fetched_without_a_probe(self):
        rig = self.expired()
        rig.republish()
        rig.settle(0.1)
        rig.ask()
        rig.settle()
        assert rig.counters() == (2, 0, 0)
        assert rig.decided_under(rig.replies[-1][3]) == 2

    def test_a_malformed_notice_names_nothing_so_the_pdp_probes(self):
        rig = self.expired()
        rig.pap.notify("pdp", "pap.changed", "<PolicyChanged/>")
        rig.settle(0.1)
        rig.ask()
        rig.settle()
        assert rig.counters() == (1, 1, 0)

    def test_full_mode_never_probed_and_still_does_not(self):
        rig = self.expired(refresh_mode="full")
        rig.ask()
        rig.settle()
        assert rig.counters() == (2, 0, 0)


instants = st.floats(min_value=0.0, max_value=0.12)


class TestNoAnswerOlderThanItsQuestion:
    @given(
        arrivals=st.lists(instants, min_size=1, max_size=10),
        republishes=st.lists(instants, max_size=4),
        overtaken=st.lists(st.booleans(), max_size=4),
        pap_latency=st.floats(min_value=0.001, max_value=0.04),
        client_latency=st.floats(min_value=0.0002, max_value=0.01),
        model=st.sampled_from(sorted(SERVICE_MODEL)),
    )
    @settings(max_examples=60, deadline=None)
    def test_parking_only_ever_delays_an_answer(
        self, arrivals, republishes, overtaken, pap_latency, client_latency, model
    ):
        """No reply is decided under a revision older than the highest
        one announced to the PDP before its query arrived; at most one
        refresh is on the wire; nobody is forgotten."""
        rig = Rig.build(
            SERVICE_MODEL[model],
            pap_latency,
            client_latency,
            tags=1 + len(republishes) + len(overtaken),
        )
        rig.overtake(overtaken)
        rig.ask_at(arrivals)
        for instant in republishes:
            rig.network.loop.schedule(instant, rig.republish)
        rig.settle(3.0)
        assert len(rig.replies) == len(arrivals) == len(rig.arrived)
        for query, _, kind, payload in rig.replies:
            assert kind == f"{BATCH}:response"
            _, announced = rig.arrived[query]
            # Eight policies, so eight revisions, per publication.
            assert rig.decided_under(payload) * RESOURCES >= announced
        assert (rig.worst_nesting, rig.worst_in_flight) == (1, 1)
        assert rig.pdp.parked_queries < len(arrivals)
