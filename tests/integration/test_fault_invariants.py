"""Property-based fault-injection tests: dependability invariants.

Invariants (hypothesis-driven):

* **fail-safe**: under any schedule of PDP crashes/recoveries, an
  unauthorised subject is never granted access;
* **determinism**: the same seed reproduces the same simulation
  byte-for-byte (message and byte counts), which is what makes every
  experiment in EXPERIMENTS.md repeatable;
* **no re-poisoning**: an answer overtaken by an invalidation never
  refills the cache the invalidation cleaned — PEP decision cache,
  gateway remote-decision cache, PDP policy cache;
* **one refresh, nobody left behind**: queries parked behind a PDP's
  policy refresh are answered under a bundle at least as new as the one
  a fetch of their own would have brought, die with the PDP if it
  crashes, and share the refresh's fault if it fails — which never
  leaves the PDP, let alone the event loop, as an exception;
* **a dead peer is a fault reply**: whatever handler calls out to a
  crashed peer, its ``RpcTimeout`` goes back to the caller as an
  ``upstream-timeout`` fault and the loop keeps running;
* **so is a message that does not decode**: a query body the PDP cannot
  read is the sender's ``pdp:malformed-query`` fault, and a reforward
  reply it cannot read is the peer replica's failure — the slots are
  decided locally.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import (
    BATCH_QUERY_ACTION,
    OWNED_BATCH_QUERY_ACTION,
    QUERY_ACTION,
    Component,
    ComponentIdentity,
    DecisionChannel,
    DecisionDispatcher,
    FederatedGateway,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    RpcFault,
    secure_action,
)
from repro.core import AccessControlSystem, SystemConfig
from repro.domain import build_federation
from repro.revocation import (
    CoherenceAgent,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
)
from repro.saml import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from repro.simnet import FailureInjector, Link, Network
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def db_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="db"),
    )


crash_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),      # replica index
        st.floats(min_value=0.5, max_value=8.0),    # crash time
        st.floats(min_value=0.5, max_value=4.0),    # downtime
    ),
    max_size=6,
)


class TestFailSafeInvariant:
    @given(crash_schedules)
    @settings(max_examples=20, deadline=None)
    def test_no_crash_schedule_grants_unauthorised_access(self, schedule):
        network = Network(seed=5)
        keystore = KeyStore(seed=5)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(
            vo.domain("acme"),
            config=SystemConfig(pdp_replicas=3, heartbeat_period=0.3),
        )
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=5)
        addresses = system.cluster.addresses
        for replica_index, at, downtime in schedule:
            if at > network.now:
                injector.crash_for(addresses[replica_index], at=at, duration=downtime)
        for _ in range(10):
            network.run(until=network.now + 1.0)
            assert not system.authorize("eve", "db", "read").granted
        # Authorised access may be temporarily denied (fail-safe) but the
        # audit must never contain a grant for eve.
        assert system.audit.subjects_touching("db") <= {"alice"}

    @given(crash_schedules)
    @settings(max_examples=10, deadline=None)
    def test_single_pdp_never_fails_open(self, schedule):
        network = Network(seed=6)
        keystore = KeyStore(seed=6)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(vo.domain("acme"))
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=6)
        pdp_name = vo.domain("acme").pdp.name
        for _, at, downtime in schedule:
            if at > network.now:
                injector.crash_for(pdp_name, at=at, duration=downtime)
        for _ in range(8):
            network.run(until=network.now + 1.0)
            assert not system.authorize("eve", "db", "read").granted


class TestDeterminism:
    def run_once(self, seed):
        network = Network(seed=seed)
        keystore = KeyStore(seed=seed)
        vo, _ = build_federation("vo", ["acme"], network, keystore)
        system = AccessControlSystem(
            vo.domain("acme"), config=SystemConfig(pdp_replicas=2)
        )
        system.protect("db")
        system.publish_policy(db_policy())
        injector = FailureInjector(network, seed=seed)
        injector.random_crash_process(
            system.cluster.addresses, horizon=10.0, mtbf=3.0, mttr=1.0
        )
        outcomes = []
        for _ in range(10):
            network.run(until=network.now + 1.0)
            outcomes.append(system.authorize("alice", "db", "read").granted)
        return (
            tuple(outcomes),
            network.metrics.messages_sent,
            network.metrics.bytes_sent,
        )

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None)
    def test_same_seed_same_world(self, seed):
        assert self.run_once(seed) == self.run_once(seed)


# -- fills that race an invalidation (ISSUE 20) ---------------------------------
#
# A cache that is cleaned while the answer to an earlier question is still
# on its way must not be refilled by that answer: the answer was made in
# the world the invalidation just ended.  Three tiers, one shape.

ALICE_READS_DOC = RequestContext.simple("alice", "doc", "read")


def permit_all(policy_id="p"):
    return Policy(policy_id=policy_id, rules=(permit_rule("all"),))


def deny_all(policy_id="p"):
    return Policy(policy_id=policy_id, rules=(deny_rule("none"),))


class TestPepCacheIsNotRepoisoned:
    """A Permit queued at the PDP when the revocation lands goes to the
    waiter that asked for it and nowhere else."""

    def build(self):
        network = Network(seed=3)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority", network, bus=bus)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(permit_all())
        pdp = PolicyDecisionPoint(
            "pdp",
            network,
            pap_address="pap",
            config=PdpConfig(envelope_overhead=0.2),
        )
        pdp.subscribe_to_policy_changes()
        pep = PolicyEnforcementPoint(
            "pep",
            network,
            pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=10.0),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001)
        agent = CoherenceAgent("agent", network, "authority", PushStrategy(bus))
        agent.protect_pep(pep)
        # Warm the PDP's policy cache so the race is the decision's alone.
        assert pep.authorize_simple("bob", "other", "read").granted

        def revoke():
            # An ENTITLEMENT record the subject-access guard does not
            # match, and nothing cached yet for invalidate_for to drop.
            pap.publish(deny_all())
            authority.registry.revoke_entitlement("dac", "alice", "doc", "read")

        network.loop.schedule(0.1, revoke)
        return network, pep

    def ask(self, network, pep, queued):
        if not queued:
            return pep.authorize(ALICE_READS_DOC)
        answers = []
        pep.submit(ALICE_READS_DOC, answers.append)
        network.run(until=network.now + 0.5)
        (answer,) = answers
        return answer

    @pytest.mark.parametrize("queued", [True, False], ids=["submit", "authorize"])
    def test_an_overtaken_permit_is_delivered_but_not_cached(self, queued):
        network, pep = self.build()
        asked_at = network.now
        in_flight = self.ask(network, pep, queued)
        assert (in_flight.decision, in_flight.source) == (Decision.PERMIT, "pdp")
        assert pep.decision_cache.fenced == 1
        assert len(pep.decision_cache) == 1  # bob's, untouched
        seen = []
        for after in (1.0, 4.0, 8.0):  # all inside the 10 s TTL
            network.run(until=asked_at + 0.1 + after)
            answer = self.ask(network, pep, queued)
            seen.append((answer.decision, answer.source))
        assert seen == [
            (Decision.DENY, "pdp"),
            (Decision.DENY, "cache"),
            (Decision.DENY, "cache"),
        ]

    def test_a_policy_change_push_beats_the_decision_it_overtook(self):
        """E6's 'TTL + invalidation push' row: same race, flush form."""
        network = Network(seed=3)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(permit_all())
        pdp = PolicyDecisionPoint(
            "pdp",
            network,
            pap_address="pap",
            config=PdpConfig(envelope_overhead=0.2),
        )
        pdp.subscribe_to_policy_changes()
        pep = PolicyEnforcementPoint(
            "pep",
            network,
            pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=10.0),
        )
        pep.subscribe_to_policy_changes("pap")
        assert pep.authorize_simple("bob", "other", "read").granted
        network.loop.schedule(0.1, lambda: pap.publish(deny_all()))
        assert pep.authorize(ALICE_READS_DOC).granted
        assert pep.decision_cache.fenced == 1
        network.run(until=network.now + 1.0)
        later = pep.authorize(ALICE_READS_DOC)
        assert (later.decision, later.source) == (Decision.DENY, "pdp")


class TestGatewayCacheIsNotRepoisoned:
    def test_an_overtaken_remote_permit_is_not_admitted(self):
        network = Network(seed=3)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.east", network, bus=bus)
        pap = PolicyAdministrationPoint("pap.east", network, domain="east")
        pap.publish(permit_all())
        PolicyDecisionPoint(
            "pdp.east",
            network,
            domain="east",
            pap_address="pap.east",
            config=PdpConfig(envelope_overhead=0.2),
        ).subscribe_to_policy_changes()
        PolicyDecisionPoint("pdp.west", network, domain="west")
        hubs = {
            name: FederatedGateway(
                f"gw.{name}",
                network,
                DecisionDispatcher([f"pdp.{name}"]),
                domain=name,
                resolve_domain=lambda request: "east",
                max_batch=8,
                max_delay=0.001,
                remote_cache_ttl=10.0,
            )
            for name in ("west", "east")
        }
        hubs["west"].add_peer("east", "gw.east")
        hubs["east"].allow_origin("west", "gw.west")
        pep = PolicyEnforcementPoint("pep.west", network, domain="west")
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs["west"])
        agent = CoherenceAgent(
            "coherence.west", network, "authority.east", PushStrategy(bus)
        )
        agent.protect_gateway(hubs["west"])
        cache = hubs["west"].remote_cache

        def ask(request):
            answers = []
            pep.submit(request, answers.append)
            network.run(until=network.now + 1.0)
            (answer,) = answers
            return answer

        assert ask(RequestContext.simple("bob", "other", "read")).granted
        assert len(cache) == 1

        def revoke():
            pap.publish(deny_all())
            authority.registry.revoke_entitlement("dac", "alice", "doc", "read")

        network.loop.schedule(0.1, revoke)
        assert ask(ALICE_READS_DOC).granted  # the in-flight answer
        assert cache.fenced == 1
        assert len(cache) == 1
        assert agent.remote_entries_invalidated == 0  # nothing to drop yet
        assert not ask(ALICE_READS_DOC).granted
        assert hubs["west"].remote_cache_hits == 0
        assert not ask(ALICE_READS_DOC).granted
        assert hubs["west"].remote_cache_hits == 1  # the Deny, cached


class TestPolicyCacheIsNotRepoisoned:
    def test_a_bundle_overtaken_by_a_change_notice_is_not_fresh(self):
        """The ~100-byte notice of revision 402 passes the 401-policy
        bundle of revision 401 on the wire; the bundle must not then be
        stamped fresh for a whole ``policy_cache_ttl``."""
        network = Network(seed=3)
        pap = PolicyAdministrationPoint("pap", network)
        for index in range(400):
            pap.publish(
                Policy(
                    policy_id=f"filler-{index}",
                    rules=(deny_rule("d"),),
                    target=subject_resource_action_target(
                        resource_id=f"other-{index}"
                    ),
                )
            )
        pap.publish(permit_all())
        pdp = PolicyDecisionPoint(
            "pdp",
            network,
            pap_address="pap",
            config=PdpConfig(policy_cache_ttl=30.0),
        )
        pdp.subscribe_to_policy_changes()
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        serve = pap._handle_retrieve

        def serve_then_republish(message):
            network.loop.schedule(0.002, lambda: pap.publish(deny_all()))
            return serve(message)

        pap.on("pap.retrieve", serve_then_republish)
        asked_at = network.now
        assert pep.authorize(ALICE_READS_DOC).granted  # decided under 401
        pap.on("pap.retrieve", serve)
        assert (pdp._cached_revision, pap.repository.revision) == (401, 402)
        network.run(until=asked_at + 1.0)
        assert not pep.authorize(ALICE_READS_DOC).granted
        assert pdp._cached_revision == 402
        assert pdp.policy_fetches == 2
        # ... and the cache is fresh again: no third fetch, no probe.
        probes = pdp.revision_probes
        network.run(until=asked_at + 10.0)
        assert not pep.authorize(ALICE_READS_DOC).granted
        assert (pdp.policy_fetches, pdp.revision_probes) == (2, probes)

    def test_a_probe_answer_overtaken_by_a_change_notice_is_not_fresh(self):
        """Same race on the cheap path: the probe's answer crawls over a
        degraded link, the link heals, and the notice of the change made
        meanwhile arrives first."""
        network = Network(seed=3)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(permit_all())
        pdp = PolicyDecisionPoint(
            "pdp",
            network,
            pap_address="pap",
            config=PdpConfig(policy_cache_ttl=5.0),
        )
        pdp.subscribe_to_policy_changes()
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        assert pep.authorize(ALICE_READS_DOC).granted
        network.run(until=network.now + 6.0)  # stale: the next decision probes
        healthy = network.link_between("pap", "pdp")
        network.set_link("pap", "pdp", Link(latency=1.0), symmetric=False)
        answer = pap._handle_revision

        def answer_then_republish(message):
            def heal_and_republish():
                network.set_link("pap", "pdp", healthy, symmetric=False)
                pap.publish(deny_all())

            network.loop.schedule(0.002, heal_and_republish)
            return answer(message)

        pap.on("pap.revision", answer_then_republish)
        # The probe said "1, as cached" about a world the notice had
        # already ended: the decision waits for the bundle instead.
        assert not pep.authorize(ALICE_READS_DOC).granted
        assert (pdp.revision_probes, pdp.policy_fetches) == (1, 2)
        assert pdp._cached_revision == pap.repository.revision == 2


# -- queries parked behind the policy refresh (ISSUE 23) -------------------------
#
# One refresh in flight per PDP: whoever arrives meanwhile waits for it.
# Waiting must only ever make an answer later and fresher, and a refresh
# that fails must fail its waiters — not the world.


def only(subject):
    """Permits exactly ``subject``: the decision names the publication."""
    return Policy(
        policy_id="p",
        rules=(
            permit_rule("one", subject_resource_action_target(subject_id=subject)),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


class ParkedBehindARefresh:
    """PAP ←20 ms→ subscribed PDP ←0.5 ms→ a PEP whose every submit is an
    envelope of its own.  ``rev-1`` is held and warm, ``rev-2`` published
    and announced: the next query starts a 40 ms refresh, and the three
    submitted 5 ms apart behind it are parked."""

    def __init__(self, pdp_timeout=2.0):
        self.network = network = Network(seed=3)
        self.pap = PolicyAdministrationPoint("pap", network)
        self.pap.publish(only("rev-1"))
        self.pdp = PolicyDecisionPoint("pdp", network, pap_address="pap")
        self.pdp.subscribe_to_policy_changes()
        self.pep = PolicyEnforcementPoint(
            "pep",
            network,
            pdp_address="pdp",
            config=PepConfig(pdp_timeout=pdp_timeout),
        )
        self.pep.enable_batching(max_batch=1, max_delay=0.001)
        network.set_link("pdp", "pap", Link(latency=0.020))
        network.set_link("pep", "pdp", Link(latency=0.0005))
        assert self.pep.authorize_simple("rev-1", "doc", "read").granted
        self.pap.publish(only("rev-2"))
        network.run(until=network.now + 0.1)
        assert (self.pdp._announced_revision, self.pdp._cached_revision) == (2, 1)
        #: (subject, result, completion instant) in completion order.
        self.answers = []
        self.worst_in_flight = self._in_flight = 0
        call = self.pdp.call

        def counted(recipient, kind, payload, **kwargs):
            self._in_flight += 1
            self.worst_in_flight = max(self.worst_in_flight, self._in_flight)
            try:
                return call(recipient, kind, payload, **kwargs)
            finally:
                self._in_flight -= 1

        self.pdp.call = counted

    def submit(self, subjects):
        """The first subject now, the others 5 ms apart behind it (each
        about a resource of its own: identical requests would share one
        in-flight slot)."""

        def ask(subject, resource):
            self.pep.submit(
                RequestContext.simple(subject, resource, "read"),
                lambda result: self.answers.append((subject, result, self.network.now)),
            )

        for index, subject in enumerate(subjects):
            self.network.loop.schedule(
                0.005 * index,
                lambda subject=subject, index=index: ask(subject, f"doc-{index}"),
            )

    def republish_while_serving(self, subjects):
        """The PAP publishes the next of ``subjects`` right after it has
        read each bundle out: the notice leaves before the bundle does."""
        pending = list(subjects)
        serve = self.pap._handle_retrieve

        def serve_then_republish(message):
            bundle = serve(message)
            if pending:
                self.pap.publish(only(pending.pop(0)))
            return bundle

        self.pap.on("pap.retrieve", serve_then_republish)


class TestParkedQueriesAreNeverServedStale:
    @pytest.mark.parametrize(
        "republished, asked",
        [
            # Notice 3 overtakes bundle 2: the query that fetched it gets
            # the in-flight answer (what a PDP without parking gives it
            # too), everyone parked waits for bundle 3.
            (["rev-3"], ["rev-2", "rev-3", "rev-3", "rev-3"]),
            # ... and notice 4 overtakes bundle 3 in turn: the first
            # parked query is now the one in flight.
            (["rev-3", "rev-4"], ["rev-2", "rev-3", "rev-4", "rev-4"]),
        ],
        ids=["one-republish", "two-republishes"],
    )
    def test_a_notice_overtaking_the_bundle_with_queries_parked(
        self, republished, asked
    ):
        world = ParkedBehindARefresh()
        world.republish_while_serving(republished)
        world.submit(asked)
        world.network.run(until=world.network.now + 1.0)
        # Every subject is permitted by exactly one publication, so a
        # grant says which bundle decided — and they left in order.
        assert [(s, r.granted) for s, r, _ in world.answers] == [
            (subject, True) for subject in asked
        ]
        pdp = world.pdp
        assert pdp.parked_queries == 3
        assert (pdp.policy_fetches, pdp.revision_probes) == (2 + len(republished), 0)
        assert world.worst_in_flight == 1
        assert pdp._cached_revision == world.pap.repository.revision
        # ... and the cache is fresh again: no further fetch.
        assert world.pep.authorize_simple(republished[-1], "doc", "read").granted
        assert pdp.policy_fetches == 2 + len(republished)

    def test_a_crash_takes_the_parked_queries_with_it(self):
        world = ParkedBehindARefresh()
        network, pdp = world.network, world.pdp
        started = network.now
        world.submit(["rev-2"] * 4)
        network.loop.schedule(0.030, pdp.crash)  # bundle due at ~0.041
        network.loop.schedule(3.0, pdp.recover)
        network.run(until=started + 2.9)
        assert pdp.parked_queries == 3
        assert not pdp._parked
        assert [r.source for _, r, _ in world.answers] == ["fail-safe"] * 4
        assert (pdp.decisions_made, pdp.policy_fetches) == (1, 1)
        network.run(until=started + 3.5)
        assert len(world.answers) == 4  # nothing surfaced after recovery
        assert world.pep.authorize_simple("rev-2", "doc", "read").granted
        assert pdp.policy_fetches == 2


class TestTheWorldSurvivesItsPap:
    """A PDP whose PAP is gone answers ``pdp:policy-unavailable``; it does
    not raise ``RpcTimeout`` into the event loop every component shares."""

    def stale_pdp_dead_pap(self):
        network = Network(seed=3)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(permit_all())
        pdp = PolicyDecisionPoint(
            "pdp", network, pap_address="pap", config=PdpConfig(policy_cache_ttl=5.0)
        )
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        pep.enable_batching(max_batch=4, max_delay=0.001)
        assert pep.authorize(ALICE_READS_DOC).granted
        network.run(until=network.now + 6.0)
        pap.crash()
        return network, pap, pdp, pep

    @pytest.mark.parametrize("queued", [True, False], ids=["submit", "authorize"])
    def test_an_unreachable_pap_is_a_fail_safe_deny(self, queued):
        network, pap, pdp, pep = self.stale_pdp_dead_pap()
        if queued:
            answers = []
            pep.submit(ALICE_READS_DOC, answers.append)
            network.run(until=network.now + 5.0)  # the loop survives
            (answer,) = answers
        else:
            answer = pep.authorize(ALICE_READS_DOC)
            network.run(until=network.now + 5.0)
        assert (answer.decision, answer.source) == (Decision.DENY, "fail-safe")
        assert pdp.decisions_made == 1  # nothing decided from the expired bundle
        pap.recover()
        assert pep.authorize(ALICE_READS_DOC).granted
        assert (pdp.revision_probes, pdp.policy_fetches) == (1, 1)

    def test_a_failed_refresh_fails_everyone_parked_behind_it_at_once(self):
        world = ParkedBehindARefresh(pdp_timeout=10.0)
        network, pdp = world.network, world.pdp
        world.pap.crash()
        started = network.now
        world.submit(["rev-2"] * 4)
        network.run(until=started + 9.0)
        assert pdp.parked_queries == 3
        assert [s for s, _, _ in world.answers] == ["rev-2"] * 4
        for _, result, _ in world.answers:
            assert (result.decision, result.source) == (Decision.DENY, "fail-safe")
            assert "pdp:policy-unavailable" in result.detail
        # One PAP timeout for the four of them, not one each in sequence.
        instants = [instant for _, _, instant in world.answers]
        assert max(instants) - started < 2.1
        assert max(instants) - min(instants) < 0.001
        # Still stale, still on revision 1: the next query tries again.
        assert (pdp.policy_fetches, pdp.decisions_made) == (1, 1)
        world.pap.recover()
        assert world.pep.authorize_simple("rev-2", "doc", "read").granted
        assert (pdp.policy_fetches, pdp._cached_revision) == (2, 2)


class TestAHandlersDeadPeerIsAFaultReply:
    """``Component._dispatch`` is the one place that cannot forget: any
    handler that blocks on a crashed peer used to raise ``RpcTimeout``
    out of ``network.run``."""

    def relay_to_a_dead_peer(self):
        network = Network(seed=3)
        client, relay, peer = (Component(name, network) for name in ("client", "relay", "peer"))
        relay.on("relay", lambda message: relay.call("peer", "ping", "<Ping/>").payload)
        assert client.call("relay", "relay", "<Go/>").payload == "<Pong/>"
        peer.crash()
        return network, client, relay, peer

    def test_in_the_event_loop(self):
        network, client, relay, peer = self.relay_to_a_dead_peer()
        faults = []
        client.on("relay:fault", lambda message: faults.append(message.payload))
        client.notify("relay", "relay", "<Go/>")
        network.run(until=network.now + 5.0)  # used to raise RpcTimeout
        (fault,) = faults
        assert fault.startswith('<Fault code="upstream-timeout">relay -> peer \'ping\'')
        peer.recover()
        assert client.call("relay", "relay", "<Go/>").payload == "<Pong/>"

    def test_under_a_blocking_call(self):
        network, client, relay, peer = self.relay_to_a_dead_peer()
        # Patient enough to hear the relay out: its own deadline for the
        # peer (2 s) ends after a default deadline that started earlier.
        with pytest.raises(RpcFault) as caught:
            client.call("relay", "relay", "<Go/>", timeout=5.0)
        assert caught.value.code == "upstream-timeout"
        network.run(until=network.now + 5.0)


# -- a message that does not decode ----------------------------------------------
#
# ``_dispatch`` turns ``RpcFault`` and ``RpcTimeout`` into fault replies;
# anything else a handler raises leaves ``network.run`` — for every
# component on the network.  A decoder's ``ValueError`` used to be that.

GARBAGE = "<garbage/>"


class SignedWorld:
    """One network and one CA; with ``secure`` every PDP answers signed
    queries only and every client signs its own."""

    def __init__(self, secure):
        self.secure = secure
        self.network = Network(seed=3)
        self.keystore = KeyStore(seed=3)
        self.ca = CertificateAuthority("ca", self.keystore)

    def identity(self, name):
        keypair = self.keystore.generate(label=name)
        return ComponentIdentity(
            name=name,
            keypair=keypair,
            certificate=self.ca.issue(name, keypair.public, 0.0, 1e9),
            keystore=self.keystore,
            validator=TrustValidator(self.keystore, anchors=[self.ca]),
        )

    def pdp(self, name, placement=None):
        pdp = PolicyDecisionPoint(
            name,
            self.network,
            identity=self.identity(name),
            config=PdpConfig(require_signed_queries=self.secure, placement=placement),
        )
        pdp.add_local_policy(permit_all(f"{name}-policy"))
        return pdp

    def client(self):
        client = Component("client", self.network, identity=self.identity("client"))
        return client, DecisionChannel(client, secure=self.secure, role="client")

    def pep(self, pdp_name):
        return PolicyEnforcementPoint(
            "pep",
            self.network,
            identity=self.identity("pep"),
            pdp_address=pdp_name,
            config=PepConfig(secure_channel=self.secure, decision_cache_ttl=0.0),
        )


def a_query(action):
    if action == QUERY_ACTION:
        return XacmlAuthzDecisionQuery(ALICE_READS_DOC, "client", 0.0).to_xml()
    return XacmlAuthzDecisionBatchQuery.for_requests(
        [ALICE_READS_DOC], "client", 0.0
    ).to_xml()


SECURITY = pytest.mark.parametrize("secure", [False, True], ids=["plain", "secure"])


class TestAMessageThatDoesNotDecodeIsAFault:
    @SECURITY
    @pytest.mark.parametrize(
        "action", [QUERY_ACTION, BATCH_QUERY_ACTION], ids=["single", "batch"]
    )
    def test_a_malformed_query_is_the_senders_fault(self, secure, action):
        world = SignedWorld(secure)
        pdp = world.pdp("pdp")
        client, channel = world.client()
        with pytest.raises(RpcFault) as caught:  # used to raise ValueError
            client.call("pdp", *channel.seal(action, GARBAGE))
        assert caught.value.code == "pdp:malformed-query"
        assert (pdp.rejected_queries, pdp.decisions_made) == (1, 0)
        # ... and the next query is answered as if nothing happened.
        reply = client.call("pdp", *channel.seal(action, a_query(action)))
        assert "Permit" in channel.open_reply(reply, "pdp")
        assert (pdp.rejected_queries, pdp.decisions_made) == (1, 1)

    @SECURITY
    @pytest.mark.parametrize("owned_too", [False, True], ids=["single", "batch"])
    def test_a_reforward_reply_that_does_not_decode_falls_back(
        self, secure, owned_too
    ):
        """The owner of the misrouted slot answers the reforward with
        garbage (signed, on the secure channel): the slot is decided
        locally and counted, exactly as when the owner is unreachable."""
        world = SignedWorld(secure)
        spec = PlacementSpec("subject", PlacementMap(["pdp-0", "pdp-1"]))
        here, owner = (world.pdp(name, placement=spec) for name in ("pdp-0", "pdp-1"))
        owned = (secure_action if secure else str)(OWNED_BATCH_QUERY_ACTION)
        owner.on(owned, lambda message: owner.channel.seal_reply(message, GARBAGE))
        foreign, local = (
            next(
                f"user-{i}" for i in range(100) if spec.ring.owner(f"user-{i}") == name
            )
            for name in ("pdp-1", "pdp-0")
        )
        subjects = [local, foreign] if owned_too else [foreign]
        results = world.pep("pdp-0").authorize_batch(
            [RequestContext.simple(subject, "doc", "read") for subject in subjects]
        )
        assert [(r.granted, r.source) for r in results] == [(True, "pdp")] * len(subjects)
        counters = world.network.metrics.counters
        assert counters["placement.reforward_fallback"] == 1
        assert (here.reforwarded_batches, owner.decisions_made) == (0, 0)
