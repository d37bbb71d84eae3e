"""Revocation → gateway-cache coherence across propagation strategies.

The tentpole guarantee of the gateway-tier remote-decision cache: a
remote subject revoked mid-workload stops being granted at *every* PEP
behind the origin gateway within the strategy's coherence window —

* **ttl-only**: no propagation; the window is the remote-cache TTL
  (after expiry the fresh cross-domain decision reflects the governing
  domain's revoked state);
* **push**: one bus propagation delay — the coherence agent selectively
  invalidates the gateway cache the moment the record lands;
* **hybrid**: push speed in steady state, pull-bounded after loss.

No PEP guard or PEP decision cache is involved, so these tests isolate
the *gateway tier*: the only places a stale grant can come from are the
gateway's remote cache and the governing domain itself.
"""

from repro.components import (
    DecisionDispatcher,
    FederatedGateway,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.revocation import (
    CoherenceAgent,
    HybridStrategy,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
    TtlOnlyStrategy,
)
from repro.simnet import Network
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

REMOTE_TTL = 2.0
TICK = 0.25
#: Propagation slack: bus push + one forwarded round trip.
PROPAGATION_SLACK = 2 * TICK

DIRECTORY = {"res.west": "west", "res.east": "east"}


def permissive_policy(resource_id: str) -> Policy:
    return Policy(
        policy_id=f"{resource_id}-policy",
        target=subject_resource_action_target(resource_id=resource_id),
        rules=(permit_rule("reads"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def revoked_policy(resource_id: str) -> Policy:
    """The governing domain's post-revocation truth: nobody passes."""
    return Policy(
        policy_id=f"{resource_id}-policy",
        target=subject_resource_action_target(resource_id=resource_id),
        rules=(deny_rule("revoked"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build(strategy_factory, pep_count=3, seed=191):
    """West origin domain (N PEPs, one gateway) querying east."""
    network = Network(seed=seed)
    bus = InvalidationBus(network)
    authority = RevocationAuthority("authority.east", network, bus=bus)
    paps = {}
    for name in ("west", "east"):
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        pap.publish(permissive_policy(f"res.{name}"))
        paps[name] = pap
        pdp = PolicyDecisionPoint(
            f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
        )
        # Intra-domain PAP->PDP coherence is push-on-change (the E6
        # mechanism); cross-domain coherence is what this test sweeps.
        pdp.subscribe_to_policy_changes()
    hubs = {}
    for name in ("west", "east"):
        hubs[name] = FederatedGateway(
            f"gw.{name}",
            network,
            DecisionDispatcher([f"pdp.{name}"]),
            domain=name,
            resolve_domain=lambda requests, then: then(
                [DIRECTORY.get(request.resource_id) for request in requests]
            ),
            max_batch=8,
            max_delay=0.001,
            remote_cache_ttl=REMOTE_TTL,
        )
    for origin, target in (("west", "east"), ("east", "west")):
        hubs[origin].add_peer(target, hubs[target].name)
        hubs[target].allow_origin(origin, hubs[origin].name)
    peps = []
    for index in range(pep_count):
        pep = PolicyEnforcementPoint(
            f"pep-{index}.west",
            network,
            domain="west",
            config=PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs["west"])
        peps.append(pep)
    agent = CoherenceAgent(
        "coherence.west",
        network,
        "authority.east",
        strategy_factory(bus),
    )
    agent.protect_gateway(hubs["west"])
    return network, peps, hubs, paps, authority, agent


def sample(network, peps, request):
    """Submit ``request`` at every PEP; returns granted-per-PEP."""
    results = {}
    for pep in peps:
        pep.submit(
            request, lambda r, name=pep.name: results.setdefault(name, r)
        )
    network.run(until=network.now + 0.2)
    assert len(results) == len(peps)
    return {name: result.granted for name, result in results.items()}


def first_deny_times(strategy_factory, revoke_at=1.0, horizon=8.0):
    """Drive the sampled workload; returns (per-PEP first-deny, t_rev)."""
    network, peps, hubs, paps, authority, agent = build(strategy_factory)
    request = RequestContext.simple("alice", "res.east", "read")
    first_deny = {}
    revoked = False
    t_rev = None
    tick = 0.0
    while network.now < horizon and len(first_deny) < len(peps):
        network.run(until=tick)
        if not revoked and tick >= revoke_at:
            # The governing domain's revocation: authoritative policy
            # change (fresh decisions deny) + registry record (the
            # strategies propagate it to the origin's caches).
            t_rev = network.now
            paps["east"].publish(revoked_policy("res.east"))
            authority.registry.revoke_subject_access("alice")
            revoked = True
        granted = sample(network, peps, request)
        for name, was_granted in granted.items():
            if revoked and not was_granted and name not in first_deny:
                first_deny[name] = network.now
            assert revoked or was_granted, f"{name} denied pre-revocation"
        tick += TICK
    assert len(first_deny) == len(peps), (
        "revocation never converged at every PEP behind the gateway"
    )
    return first_deny, t_rev, hubs


class TestGatewayCacheCoherenceWindows:
    def test_ttl_only_window_is_the_remote_cache_ttl(self):
        first_deny, t_rev, hubs = first_deny_times(lambda bus: TtlOnlyStrategy())
        for name, at in first_deny.items():
            staleness = at - t_rev
            assert staleness <= REMOTE_TTL + PROPAGATION_SLACK, (
                f"{name}: stale for {staleness:.2f}s > TTL window"
            )
        # The cache really served stale grants inside the window —
        # the staleness being priced, not an idle cache.
        assert hubs["west"].remote_cache_hits > 0

    def test_push_window_is_one_propagation_delay(self):
        first_deny, t_rev, hubs = first_deny_times(PushStrategy)
        for name, at in first_deny.items():
            staleness = at - t_rev
            assert staleness <= PROPAGATION_SLACK, (
                f"{name}: stale for {staleness:.2f}s > push window"
            )

    def test_hybrid_window_matches_push_in_steady_state(self):
        first_deny, t_rev, hubs = first_deny_times(
            lambda bus: HybridStrategy(bus, pull_interval=30.0)
        )
        for name, at in first_deny.items():
            staleness = at - t_rev
            assert staleness <= PROPAGATION_SLACK, (
                f"{name}: stale for {staleness:.2f}s > hybrid window"
            )

    def test_push_beats_ttl_only(self):
        """The ordering E15 pins for PEP caches must hold at the
        gateway tier too: push converges strictly faster than TTL-only
        when the TTL dominates the propagation delay."""
        ttl_deny, ttl_rev, _ = first_deny_times(lambda bus: TtlOnlyStrategy())
        push_deny, push_rev, _ = first_deny_times(PushStrategy)
        worst_ttl = max(at - ttl_rev for at in ttl_deny.values())
        worst_push = max(at - push_rev for at in push_deny.values())
        assert worst_push < worst_ttl

    def test_revoked_subject_denied_while_others_keep_amortising(self):
        network, peps, hubs, paps, authority, agent = build(PushStrategy)
        alice = RequestContext.simple("alice", "res.east", "read")
        bob = RequestContext.simple("bob", "res.east", "read")
        assert all(sample(network, peps, alice).values())
        assert all(sample(network, peps, bob).values())
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        # Only alice's entry died: bob still rides the gateway cache.
        hits_before = hubs["west"].remote_cache_hits
        assert all(sample(network, peps, bob).values())
        assert hubs["west"].remote_cache_hits > hits_before
        assert agent.remote_entries_invalidated == 1


def test_protect_gateway_composes_with_pep_guard():
    """protect_gateway and protect_pep are independent layers: wiring
    both must not double-install or interfere."""
    network, peps, hubs, paps, authority, agent = build(PushStrategy)
    agent.protect_pep(peps[0])
    alice = RequestContext.simple("alice", "res.east", "read")
    assert all(sample(network, peps, alice).values())
    paps["east"].publish(revoked_policy("res.east"))
    authority.registry.revoke_subject_access("alice")
    network.run(until=network.now + 1.0)
    granted = sample(network, peps, alice)
    assert not any(granted.values())
    assert peps[0].revocation_denials >= 1
