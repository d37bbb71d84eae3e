"""Cross-domain federation: routing, TTL, trust, signatures, revocation."""

import pytest

from repro.components import (
    DecisionDispatcher,
    FORWARD_ACTION,
    FORWARD_TTL,
    FederatedGateway,
    ForwardedBatchQuery,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.domain import ResourceDirectory, VirtualOrganization
from repro.revocation import (
    CoherenceAgent,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
    RevocationKind,
    trust_edge_target,
)
from repro.saml.xacml_profile import XacmlAuthzDecisionBatchQuery
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

#: The VO-wide governance map both test domains agree on.
DIRECTORY = {"res.west": "west", "res.east": "east"}


def policy_for(resource_id: str) -> Policy:
    return Policy(
        policy_id=f"{resource_id}-policy",
        target=subject_resource_action_target(resource_id=resource_id),
        rules=(
            permit_rule(
                "alice", subject_resource_action_target(subject_id="alice")
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build_two_domains(
    resolvers=None,
    connect=True,
    cache_ttl=0.0,
    seed=91,
    remote_cache_ttl=0.0,
    forward_delay=None,
):
    """Two insecure domains (west/east), one PEP + PDP + gateway each.

    ``resolvers`` overrides a domain's resource→domain map (how the
    loop test models two domains with *conflicting* directories).
    ``remote_cache_ttl`` enables the gateway-tier remote-decision
    cache on both gateways; ``forward_delay`` holds remote slots in the
    forward buffers that long.
    """
    network = Network(seed=seed)
    hubs: dict[str, FederatedGateway] = {}
    peps: dict[str, PolicyEnforcementPoint] = {}
    for name in ("west", "east"):
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        pap.publish(policy_for(f"res.{name}"))
        PolicyDecisionPoint(
            f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
        )
        mapping = (resolvers or {}).get(name, DIRECTORY)
        hubs[name] = FederatedGateway(
            f"gw.{name}",
            network,
            DecisionDispatcher([f"pdp.{name}"]),
            domain=name,
            resolve_domain=(
                lambda requests, then, m=mapping: then(
                    [m.get(request.resource_id) for request in requests]
                )
            ),
            max_batch=8,
            max_delay=0.001,
            remote_cache_ttl=remote_cache_ttl,
            forward_delay=forward_delay,
        )
        pep = PolicyEnforcementPoint(
            f"pep.{name}",
            network,
            domain=name,
            config=PepConfig(decision_cache_ttl=cache_ttl),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs[name])
        peps[name] = pep
    if connect:
        for origin, target in (("west", "east"), ("east", "west")):
            hubs[origin].add_peer(target, hubs[target].name)
            hubs[target].allow_origin(origin, hubs[origin].name)
    return network, peps, hubs


class TestForwardedBatchQueryWireFormat:
    def test_round_trip(self):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [RequestContext.simple("alice", "res.east", "read")],
            issuer="gw.west",
            issue_instant=1.25,
        )
        forwarded = ForwardedBatchQuery(
            batch=batch, origin_domain="west", origin_gateway="gw.west", ttl=2
        )
        parsed = ForwardedBatchQuery.from_xml(forwarded.to_xml())
        assert parsed.origin_domain == "west"
        assert parsed.origin_gateway == "gw.west"
        assert parsed.ttl == 2
        assert parsed.batch.batch_id == batch.batch_id
        assert len(parsed.batch.queries) == 1

    def test_hostile_domain_name_round_trips(self):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [RequestContext.simple("alice", "res.east", "read")],
            issuer="gw",
            issue_instant=0.0,
        )
        hostile = 'we"st<&'
        forwarded = ForwardedBatchQuery(
            batch=batch, origin_domain=hostile, origin_gateway="gw", ttl=1
        )
        assert ForwardedBatchQuery.from_xml(forwarded.to_xml()).origin_domain == hostile

    def test_ttl_validated(self):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [RequestContext.simple("a", "r", "read")], issuer="g",
            issue_instant=0.0,
        )
        with pytest.raises(ValueError, match="TTL"):
            ForwardedBatchQuery(
                batch=batch, origin_domain="d", origin_gateway="g", ttl=0
            )


class TestRemoteDecisionFlow:
    def test_remote_resource_decided_by_governing_domain(self):
        network, peps, hubs = build_two_domains()
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(done) == 1
        assert done[0].granted and done[0].source == "pdp"
        assert hubs["west"].forwarded_batches_sent == 1
        assert hubs["west"].requests_forwarded == 1
        assert hubs["west"].remote_decisions_delivered == 1
        assert hubs["east"].forwarded_batches_served == 1
        assert hubs["east"].forwarded_decisions_returned == 1
        assert network.metrics.sent_by_kind[FORWARD_ACTION] == 1
        # The envelope went gateway→gateway, not PEP→remote-PDP.
        assert hubs["west"].super_batches_sent == 0

    def test_mixed_batch_splits_local_and_remote(self):
        network, peps, hubs = build_two_domains()
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.west", "read"), done.append
        )
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(done) == 2
        assert all(result.granted for result in done)
        assert hubs["west"].super_batches_sent == 1  # local slot
        assert hubs["west"].forwarded_batches_sent == 1  # remote slot

    def test_remote_deny_stays_deny(self):
        network, peps, hubs = build_two_domains()
        done = []
        peps["west"].submit(
            RequestContext.simple("eve", "res.east", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "pdp"


class TestFailSafeEdges:
    def test_unknown_remote_domain_denies_fail_safe(self):
        resolvers = {"west": {**DIRECTORY, "res.limbo": "limbo"}}
        network, peps, hubs = build_two_domains(resolvers=resolvers)
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.limbo", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert hubs["west"].unknown_domain_denials == 1
        assert network.metrics.counters["federation.unknown_domain"] == 1
        assert hubs["west"].forwarded_batches_sent == 0

    def test_unreachable_peer_gateway_denies_fail_safe(self):
        network, peps, hubs = build_two_domains()
        hubs["east"].crash()
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert hubs["west"].peer_failures == 1
        assert network.metrics.counters["federation.peer_unreachable"] == 1

    def test_forwarding_loop_cut_by_ttl(self):
        """Two domains with conflicting directories bounce a request
        between them; the TTL ends the chain in a fail-safe deny."""
        resolvers = {
            "west": {**DIRECTORY, "res.ghost": "east"},
            "east": {**DIRECTORY, "res.ghost": "west"},
        }
        network, peps, hubs = build_two_domains(resolvers=resolvers)
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.ghost", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert not done[0].granted
        # west forwarded (ttl 3), east re-forwarded (ttl 2), west
        # re-forwarded (ttl 1), east cut it.
        assert FORWARD_TTL == 3
        assert hubs["west"].forwarded_batches_sent == 2
        assert hubs["east"].forwarded_batches_sent == 1
        assert hubs["east"].ttl_denials == 1
        assert network.metrics.counters["federation.ttl_expired"] == 1
        # Exactly three forwards crossed the wire — the loop is bounded.
        assert network.metrics.sent_by_kind[FORWARD_ACTION] == 3

    def test_unregistered_origin_rejected(self):
        network, peps, hubs = build_two_domains(connect=False)
        hubs["west"].add_peer("east", hubs["east"].name)
        # east never called allow_origin("west", ...): the forward is
        # refused and the origin fails safe.
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert hubs["east"].origin_rejections == 1
        assert hubs["east"].forwarded_batches_served == 0
        assert network.metrics.counters["federation.origin_rejected"] == 1


def build_secure_vo():
    """Two VO domains with real identities and a cross-certified root,
    their gateways peered both ways."""
    network = Network(seed=93)
    keystore = KeyStore(seed=93)
    vo = VirtualOrganization("secvo", network, keystore)
    west = vo.create_domain("west").standard_layout()
    east = vo.create_domain("east").standard_layout()
    east.pap.publish(policy_for("res.east"))
    west.pap.publish(policy_for("res.west"))
    directory = ResourceDirectory()
    directory.register("res.west", "west")
    directory.register("res.east", "east")
    gateways = {
        domain.name: FederatedGateway(
            f"gateway.{domain.name}",
            network,
            DecisionDispatcher([domain.pdp.name]),
            domain=domain.name,
            identity=domain.component_identity(f"gateway.{domain.name}"),
            resolve_domain=directory.resolver(),
            max_batch=8,
            max_delay=0.001,
        )
        for domain in (west, east)
    }
    for origin, target in (("west", "east"), ("east", "west")):
        gateways[origin].add_peer(target, gateways[target].name)
        gateways[target].allow_origin(origin, gateways[origin].name)
    pep = west.create_pep("portal", config=PepConfig(decision_cache_ttl=0.0))
    pep.enable_batching(max_batch=4, max_delay=0.001, gateway=gateways["west"])
    return network, vo, gateways["west"], gateways["east"], pep


class TestSecureFederation:
    def test_signed_forward_round_trip(self):
        network, vo, gw_west, gw_east, pep = build_secure_vo()
        done = []
        pep.submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(done) == 1
        assert done[0].granted and done[0].source == "pdp"
        assert gw_east.forwarded_batches_served == 1
        assert gw_east.origin_rejections == 0

    def test_wrong_signer_rejected(self):
        network, vo, gw_west, gw_east, pep = build_secure_vo()
        # Re-pin east's accepted origin to a different component: the
        # genuine (validly signed!) forward no longer matches the pinned
        # peer gateway and must be rejected.
        gw_east.allow_origin("west", "pdp.west")
        done = []
        pep.submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert gw_east.origin_rejections == 1
        assert gw_east.forwarded_batches_served == 0


class TestGatewayRemoteDecisionCache:
    def second_pep(self, network, hub, name="pep2.west"):
        pep = PolicyEnforcementPoint(
            name,
            network,
            domain="west",
            config=PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hub)
        return pep

    def test_repeat_remote_request_served_from_gateway_cache(self):
        network, peps, hubs = build_two_domains(remote_cache_ttl=60.0)
        request = RequestContext.simple("alice", "res.east", "read")
        done = []
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert done[0].granted and done[0].source == "pdp"
        assert hubs["west"].forwarded_batches_sent == 1
        # Same identity again (PEP cache is off): the gateway serves it
        # from its remote-decision cache — zero new cross-domain traffic.
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert len(done) == 2 and done[1].granted
        assert hubs["west"].forwarded_batches_sent == 1
        assert hubs["west"].remote_cache_hits == 1
        assert hubs["west"].remote_cache_decisions_served == 1
        assert network.metrics.counters["federation.remote_cache_hit"] == 1
        assert network.metrics.sent_by_kind[FORWARD_ACTION] == 1

    def test_hit_demultiplexes_to_other_peps_behind_the_gateway(self):
        """One PEP's round trip pays for every sibling's identical
        request — the cross-PEP amortisation the gateway tier exists
        for, now across *time* as well as within a batch."""
        network, peps, hubs = build_two_domains(remote_cache_ttl=60.0)
        sibling = self.second_pep(network, hubs["west"])
        request = RequestContext.simple("alice", "res.east", "read")
        done = []
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert hubs["west"].forwarded_batches_sent == 1
        sibling.submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert len(done) == 2
        assert all(result.granted for result in done)
        # The sibling's grant was enforced by the sibling, from the
        # gateway tier, with no second forward.
        assert sibling.grants == 1
        assert hubs["west"].forwarded_batches_sent == 1
        assert hubs["west"].remote_cache_hits == 1

    def test_cache_expiry_forces_a_fresh_forward(self):
        network, peps, hubs = build_two_domains(remote_cache_ttl=2.0)
        request = RequestContext.simple("alice", "res.east", "read")
        done = []
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        network.run(until=network.now + 3.0)  # TTL expires
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert len(done) == 2 and all(r.granted for r in done)
        assert hubs["west"].forwarded_batches_sent == 2
        assert hubs["west"].remote_cache_hits == 0

    def test_denies_are_cached_but_indeterminates_are_not(self):
        network, peps, hubs = build_two_domains(remote_cache_ttl=60.0)
        done = []
        deny = RequestContext.simple("eve", "res.east", "read")
        peps["west"].submit(deny, done.append)
        network.run(until=network.now + 5.0)
        peps["west"].submit(deny, done.append)
        network.run(until=network.now + 5.0)
        assert len(done) == 2 and not any(r.granted for r in done)
        # The definitive deny amortised like a grant.
        assert hubs["west"].forwarded_batches_sent == 1
        assert hubs["west"].remote_cache_hits == 1

    def test_ttl_exhaustion_statement_not_cached(self):
        """The peer's fail-safe Indeterminate answers must not pin the
        transient routing failure onto the whole fleet for a TTL."""
        resolvers = {
            "west": {**DIRECTORY, "res.ghost": "east"},
            "east": {**DIRECTORY, "res.ghost": "west"},
        }
        network, peps, hubs = build_two_domains(
            resolvers=resolvers, remote_cache_ttl=60.0
        )
        request = RequestContext.simple("alice", "res.ghost", "read")
        done = []
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 10.0)
        assert not done[0].granted
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 10.0)
        assert len(done) == 2
        # Second attempt forwarded again: nothing was cached.
        assert hubs["west"].remote_cache_hits == 0
        assert network.metrics.sent_by_kind[FORWARD_ACTION] == 6

    def test_revocation_selectively_invalidates_gateway_cache(self):
        """The tentpole coherence wiring: a pushed revocation kills
        exactly the revoked subject's gateway-tier entries, forcing the
        next request back onto the authoritative cross-domain path."""
        network, peps, hubs = build_two_domains(remote_cache_ttl=3600.0)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.east", network, bus=bus)
        agent = CoherenceAgent(
            "coherence.west", network, "authority.east", PushStrategy(bus)
        )
        agent.protect_gateway(hubs["west"])
        alice = RequestContext.simple("alice", "res.east", "read")
        bob = RequestContext.simple("bob", "res.east", "read")
        done = []
        peps["west"].submit(alice, done.append)
        peps["west"].submit(bob, done.append)
        network.run(until=network.now + 5.0)
        assert len(done) == 2
        assert len(hubs["west"].remote_cache) == 2
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 2.0)
        assert agent.records_applied == 1
        assert agent.remote_entries_invalidated == 1
        # Alice's entry died; bob's survived and still amortises.
        forwards_before = hubs["west"].forwarded_batches_sent
        peps["west"].submit(bob, done.append)
        network.run(until=network.now + 5.0)
        assert hubs["west"].forwarded_batches_sent == forwards_before
        peps["west"].submit(alice, done.append)
        network.run(until=network.now + 5.0)
        assert hubs["west"].forwarded_batches_sent == forwards_before + 1

    def test_trust_edge_revocation_flushes_gateway_cache(self):
        """Transitive revocations have no selective key: the whole
        remote cache is suspect, exactly like PEP/PDP caches."""
        network, peps, hubs = build_two_domains(remote_cache_ttl=3600.0)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.east", network, bus=bus)
        agent = CoherenceAgent(
            "coherence.west", network, "authority.east", PushStrategy(bus)
        )
        agent.protect_gateway(hubs["west"])
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 5.0)
        assert len(hubs["west"].remote_cache) == 1
        authority.registry.revoke(
            RevocationKind.TRUST_EDGE, trust_edge_target("west", "east", "decision")
        )
        network.run(until=network.now + 2.0)
        assert len(hubs["west"].remote_cache) == 0


class TestServingSideMisrouteReCheck:
    def build_with_directory_service(self):
        """West/east with a networked directory; east's lookup cache is
        deliberately unsubscribed + long-TTL so a transfer leaves it
        stale (the misroute source), while both serving sides re-check
        authoritatively."""
        from repro.domain import DirectoryClient, DirectoryService

        network = Network(seed=97)
        directory = ResourceDirectory()
        directory.register("res.west", "west")
        directory.register("res.east", "east")
        directory.register("res.moving", "west")
        service = DirectoryService("dirsvc", network, directory)
        hubs = {}
        peps = {}
        clients = {}
        for name in ("west", "east"):
            pap = PolicyAdministrationPoint(
                f"pap.{name}", network, domain=name
            )
            pap.publish(policy_for(f"res.{name}"))
            if name == "east":
                # The post-transfer truth: only east's PAP can permit
                # alice on res.moving — west (the stale route) holds no
                # policy for it, so a mis-decision there would visibly
                # differ (NotApplicable -> deny).
                pap.publish(policy_for("res.moving"))
            PolicyDecisionPoint(
                f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
            )
            client = DirectoryClient(
                f"dircl.{name}",
                network,
                "dirsvc",
                ttl=3600.0,
                subscribe=False,
            )
            clients[name] = client
            hubs[name] = FederatedGateway(
                f"gw.{name}",
                network,
                DecisionDispatcher([f"pdp.{name}"]),
                domain=name,
                resolve_domain=client.resolver(),
                resolve_authoritative=client.authoritative_resolver(),
                max_batch=8,
                max_delay=0.001,
            )
            pep = PolicyEnforcementPoint(
                f"pep.{name}",
                network,
                domain=name,
                config=PepConfig(decision_cache_ttl=0.0),
            )
            pep.enable_batching(
                max_batch=4, max_delay=0.001, gateway=hubs[name]
            )
            peps[name] = pep
        for origin, target in (("west", "east"), ("east", "west")):
            hubs[origin].add_peer(target, hubs[target].name)
            hubs[target].allow_origin(origin, hubs[origin].name)
        return network, peps, hubs, clients, service

    def test_stale_origin_misroute_is_reforwarded_not_misdecided(self):
        network, peps, hubs, clients, service = (
            self.build_with_directory_service()
        )
        # Warm east's stale view of res.moving ("west" governs it).
        warm = []
        peps["east"].submit(
            RequestContext.simple("alice", "res.moving", "read"), warm.append
        )
        network.run(until=network.now + 5.0)
        # Pre-transfer: west governs, west has no policy -> denied.
        assert len(warm) == 1 and not warm[0].granted
        assert clients["east"].cache.get("res.moving") == "west"
        # Governance moves to east; east's cache stays stale.
        service.transfer("res.moving", "east")
        stale = []
        clients["east"].domain_for("res.moving", stale.append)
        assert stale == ["west"]  # a cache hit, answered at once
        done = []
        peps["east"].submit(
            RequestContext.simple("alice", "res.moving", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        # The request bounced east -> west (stale route), west's
        # authoritative re-check detected the misroute and re-forwarded
        # east-ward, where the governing policy granted it.
        assert hubs["west"].misroutes_detected >= 1
        assert hubs["west"].misroutes_reforwarded >= 1
        assert network.metrics.counters["federation.misroute"] >= 1
        assert hubs["east"].forwarded_batches_served >= 1
        assert done[0].granted and done[0].source == "pdp"

    def test_unanswerable_recheck_fails_closed_not_local(self):
        """A serving gateway whose authoritative re-check cannot
        complete must answer Indeterminate, not decide the forwarded
        request under its own (possibly stale) policy."""
        network, peps, hubs, clients, service = (
            self.build_with_directory_service()
        )
        # Warm west's origin route for res.east so the forward still
        # happens after the directory dies.
        warm = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), warm.append
        )
        network.run(until=network.now + 5.0)
        assert len(warm) == 1 and warm[0].granted
        service.crash()
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        # Fail-closed: the origin enforces the Indeterminate as deny.
        assert not done[0].granted
        assert hubs["east"].recheck_failures >= 1
        assert network.metrics.counters["federation.recheck_failed"] >= 1

    def test_a_client_crashing_mid_lookup_fails_it_safe_and_the_gateway_drains_on(self):
        """The gateway waiting on a lookup is up when its directory
        client crashes with the lookup on the wire: the lookup fails at
        once, the request is decided locally (deny for a foreign
        resource), and the gateway drains again after ``recover()``."""
        network, peps, hubs, clients, service = (
            self.build_with_directory_service()
        )
        client = clients["west"]
        done = []
        peps["west"].submit(RequestContext.simple("alice", "res.east", "read"), done.append)
        network.loop.run_until(lambda: client.lookups_sent == 1, network.now + 1.0)
        client.crash()  # the lookup is on the wire
        network.run(until=network.now + 1.0)
        assert [(result.granted, client.failed_lookups) for result in done] == [(False, 1)]
        client.recover()
        peps["west"].submit(RequestContext.simple("alice", "res.east", "read"), done.append)
        network.run(until=network.now + 5.0)
        assert [result.granted for result in done] == [False, True]

    def test_a_client_crashing_mid_recheck_fails_it_closed(self):
        network, peps, hubs, clients, service = (
            self.build_with_directory_service()
        )
        client = clients["east"]
        done = []
        peps["west"].submit(RequestContext.simple("alice", "res.east", "read"), done.append)
        network.loop.run_until(
            lambda: client.authoritative_lookups == 1, network.now + 1.0
        )
        client.crash()  # the serving side's re-check is on the wire
        network.run(until=network.now + 1.0)
        assert [result.granted for result in done] == [False]
        assert hubs["east"].recheck_failures == 1
        client.recover()
        peps["west"].submit(RequestContext.simple("alice", "res.east", "read"), done.append)
        network.run(until=network.now + 5.0)
        assert [result.granted for result in done] == [False, True]


class TestFederatedRevocation:
    def test_remote_revocation_reaches_the_federated_path(self):
        """A revocation issued in the governing domain must bite a PEP
        in *another* domain that cached a federated decision."""
        network, peps, hubs = build_two_domains(cache_ttl=3600.0)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.east", network, bus=bus)
        agent = CoherenceAgent(
            "coherence.west", network, "authority.east", PushStrategy(bus)
        )
        agent.protect_pep(peps["west"])
        request = RequestContext.simple("alice", "res.east", "read")
        done = []
        peps["west"].submit(request, done.append)
        network.run(until=network.now + 5.0)
        assert done and done[0].granted and done[0].source == "pdp"
        # Cached now: a resubmission completes synchronously from cache.
        assert peps["west"].submit(request, done.append) is True
        assert done[1].source == "cache"
        # The governing domain revokes the subject; the push reaches the
        # remote coherence agent and the cached grant dies with it.
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 2.0)
        assert agent.records_applied == 1
        assert peps["west"].submit(request, done.append) is True
        assert not done[2].granted
        assert done[2].source == "revocation"
        assert peps["west"].revocation_denials == 1


class TestTrustEdgeWithdrawal:
    """A revoked trust edge ``(g, d, kind)`` withdraws the gateway entry
    it backs, through a coherence agent protecting both gateways:
    DECISION drops g's peer d (the forwarding side enforces d's
    decisions), IDENTITY drops g's origin d (d's forwards carry its
    claims about its own subjects)."""

    def build(self, **kwargs):
        network, peps, hubs = build_two_domains(**kwargs)
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.vo", network, bus=bus)
        agent = CoherenceAgent(
            "coherence.vo", network, "authority.vo", PushStrategy(bus)
        )
        for hub in hubs.values():
            agent.protect_gateway(hub)
        return network, peps, hubs, authority.registry

    def west_asks_east(self, network, peps):
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        return done[0]

    def test_revoked_decision_edge_denies_fail_safe(self):
        network, peps, hubs, registry = self.build()
        registry.revoke(
            RevocationKind.TRUST_EDGE, trust_edge_target("west", "east", "decision")
        )
        network.run(until=network.now + 1.0)
        result = self.west_asks_east(network, peps)
        assert not result.granted and result.source == "fail-safe"
        assert hubs["east"].forwarded_batches_served == 0
        assert hubs["west"].forwarded_batches_sent == 0

    def test_revoked_identity_edge_rejects_the_origin(self):
        network, peps, hubs, registry = self.build()
        registry.revoke(
            RevocationKind.TRUST_EDGE, trust_edge_target("east", "west", "identity")
        )
        network.run(until=network.now + 1.0)
        result = self.west_asks_east(network, peps)
        assert not result.granted and result.source == "fail-safe"
        assert "federation:untrusted-origin" in result.detail
        assert hubs["east"].origin_rejections == 1
        assert hubs["east"].forwarded_batches_served == 0

    @pytest.mark.parametrize(
        "edge",
        [
            # A third domain withdrawing its own trust in east or west.
            ("north", "east", "decision"),
            ("north", "west", "identity"),
            ("east", "west", "decision"),
            ("west", "east", "identity"),
            ("west", "east", "capability"),
            ("east", "west", "capability"),
        ],
        ids="-".join,
    )
    def test_another_truster_or_kind_changes_nothing(self, edge):
        network, peps, hubs, registry = self.build()
        registry.revoke(RevocationKind.TRUST_EDGE, trust_edge_target(*edge))
        network.run(until=network.now + 1.0)
        result = self.west_asks_east(network, peps)
        assert result.granted and result.source == "pdp"
        assert hubs["east"].forwarded_batches_served == 1

    def test_buffered_slots_fail_safe_when_the_peer_is_withdrawn(self):
        network, peps, hubs = build_two_domains(forward_delay=5.0)
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        network.run(until=network.now + 1.0)
        assert not done and hubs["west"].forwarded_batches_sent == 0
        hubs["west"].withdraw_peer("east")
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert "federation:untrusted-peer" in done[0].detail
        assert hubs["west"].forwarded_batches_sent == 0

    def test_reply_in_flight_from_a_withdrawn_peer_is_not_delivered(self):
        network, peps, hubs = build_two_domains()
        done = []
        peps["west"].submit(
            RequestContext.simple("alice", "res.east", "read"), done.append
        )
        while hubs["west"].forwarded_batches_sent == 0:
            network.run(until=network.now + 0.0005)
        assert hubs["west"].inflight_count == 1 and not done
        hubs["west"].withdraw_peer("east")
        network.run(until=network.now + 10.0)
        # East served the forward and answered; the answer was dropped.
        assert hubs["east"].forwarded_batches_served == 1
        assert hubs["west"].remote_decisions_delivered == 0
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"
        assert "federation:untrusted-peer" in done[0].detail

