"""Sharded PDP tier end-to-end: hash routing, reforwards, rebalance.

The placement layer's network half: a PEP with ``hash-subject``
dispatch over replicas that each own a hash range of the population's
subject state.  Covers the three slot paths of
``_answer_batch_sharded`` (owned, reforwarded, fallback) and the
join/leave rebalance story, always pinning decisions against an
unsharded reference engine.
"""

from repro.components import (
    ConsistentHashRouting,
    DecisionDispatcher,
    FederatedGateway,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    Slot,
)
from repro.simnet import Network
from repro.workloads import Population, PopulationSpec
from repro.xacml import Decision, PdpEngine, PolicyStore
from repro.xacml.attributes import Category

REQUESTS = 60


def build_tier(replicas=3, seed=19, stale_view=False, pdp_timeout=2.0):
    network = Network(seed=seed)
    population = Population(PopulationSpec(subjects=300, resources=24))
    names = [f"pdp-{index}" for index in range(replicas)]
    spec = PlacementSpec("subject", PlacementMap(names))
    pdps = []
    for name in names:
        pdp = PolicyDecisionPoint(
            name,
            network,
            config=PdpConfig(placement=spec),
            attribute_resolver=population.attribute_resolver(),
        )
        for policy in population.policy_set():
            pdp.add_local_policy(policy)
        pdps.append(pdp)
    pep = PolicyEnforcementPoint(
        "pep",
        network,
        config=PepConfig(decision_cache_ttl=0.0, pdp_timeout=pdp_timeout),
    )
    routing = spec.routing_view() if stale_view else spec
    dispatcher = DecisionDispatcher(
        names, policy=ConsistentHashRouting(routing)
    )
    pep.enable_batching(max_batch=8, max_delay=0.01, dispatcher=dispatcher)
    return network, population, spec, pdps, pep, dispatcher


def reference_decisions(population, requests) -> list[bool]:
    engine = PdpEngine(PolicyStore(indexed=True))
    for policy in population.policy_set():
        engine.add_policy(policy)
    resolver = population.attribute_resolver()
    granted = []
    for request in requests:
        def finder(category, attribute_id, data_type, request=request):
            if category is not Category.SUBJECT:
                return []
            return [
                value
                for value in resolver(request.subject_id).get(
                    attribute_id, []
                )
                if value.data_type is data_type
            ]

        engine.attribute_finder = finder
        granted.append(engine.evaluate(request).decision is Decision.PERMIT)
    return granted


def drive(network, pep, requests) -> list[bool]:
    results = [None] * len(requests)
    for index, request in enumerate(requests):
        pep.submit(
            request,
            lambda result, index=index: results.__setitem__(
                index, result.granted
            ),
        )
    network.run(until=network.now + 60.0)
    assert all(result is not None for result in results)
    return results


class TestHashRouting:
    def test_envelopes_land_on_owners(self):
        network, population, spec, pdps, pep, _ = build_tier()
        requests = list(population.request_contexts(REQUESTS, seed=2))
        granted = drive(network, pep, requests)
        assert granted == reference_decisions(population, requests)
        # Routing by the shared spec: no slot ever needed a reforward.
        metrics = network.metrics
        assert metrics.counters["placement.misrouted"] == 0
        assert sum(pdp.reforwarded_batches for pdp in pdps) == 0
        # Each replica materialised only keys it owns.
        touched = {request.subject_id for request in requests}
        total = sum(pdp.partition.cardinality for pdp in pdps)
        assert total == len(touched)
        for pdp in pdps:
            assert all(pdp.partition.owns(key) for key in pdp.partition.keys())

    def test_dispatcher_partition_groups_by_owner(self):
        network, population, spec, pdps, pep, dispatcher = build_tier()
        requests = list(population.request_contexts(20, seed=5))
        slots = [
            Slot(request, key=index, owner="pep")
            for index, request in enumerate(requests)
        ]
        groups = dispatcher.partition(slots)
        assert sum(len(items) for _, items in groups) == len(requests)
        for owner, items in groups:
            assert all(spec.owner_of(slot.request) == owner for slot in items)


class TestStaleRoutingView:
    def test_misroutes_reforward_and_decisions_hold(self):
        network, population, spec, pdps, pep, dispatcher = build_tier(
            stale_view=True
        )
        # The authoritative ring gains a replica; the client's routing
        # view is never synced, so its envelopes keep landing on the
        # old owners, who must reforward the moved keys' slots.
        joined = PolicyDecisionPoint(
            "pdp-3",
            network,
            config=PdpConfig(placement=spec),
            attribute_resolver=population.attribute_resolver(),
        )
        for policy in population.policy_set():
            joined.add_local_policy(policy)
        spec.ring.add_replica("pdp-3")
        pdps.append(joined)
        for pdp in pdps:
            pdp.rebalance_placement()
        requests = list(population.request_contexts(REQUESTS, seed=3))
        granted = drive(network, pep, requests)
        assert granted == reference_decisions(population, requests)
        metrics = network.metrics
        assert metrics.counters["placement.misrouted"] > 0
        assert metrics.counters["placement.reforwarded"] > 0
        assert metrics.counters["placement.reforward_fallback"] == 0
        assert sum(pdp.owned_batches_served for pdp in pdps) > 0
        # The stale client's view lags the authoritative ring.
        assert dispatcher.placement.ring.epoch != spec.ring.epoch

    def test_unreachable_owner_falls_back_locally(self):
        # The PEP outwaits the replicas' reforward deadline.
        network, population, spec, pdps, pep, dispatcher = build_tier(pdp_timeout=5.0)
        # Kill one owner; the dispatcher's failover re-aims its
        # envelopes at survivors, whose reforward to the dead owner
        # times out and falls back to authoritative local evaluation.
        pdps[0].crash()
        requests = list(population.request_contexts(30, seed=7))
        granted = drive(network, pep, requests)
        assert granted == reference_decisions(population, requests)
        metrics = network.metrics
        assert metrics.counters["placement.reforward_fallback"] > 0


def build_forwarding_origin(network, names, spec):
    """Put the sharded tier behind a gateway (domain ``east``) and aim a
    second domain's PEP at it: everything ``pep.west`` asks is governed
    by ``east`` and leaves ``gw.west`` as one forwarded batch."""
    east = FederatedGateway(
        "gw.east",
        network,
        DecisionDispatcher(names, policy=ConsistentHashRouting(spec)),
        domain="east",
        max_batch=REQUESTS + 4,
    )
    west = FederatedGateway(
        "gw.west",
        network,
        DecisionDispatcher(names),
        domain="west",
        resolve_domain=lambda requests, then: then(["east" for request in requests]),
        max_batch=REQUESTS + 4,
        max_delay=0.001,
    )
    west.add_peer("east", east.name)
    east.allow_origin("west", west.name)
    pep = PolicyEnforcementPoint(
        "pep.west",
        network,
        domain="west",
        config=PepConfig(decision_cache_ttl=0.0),
    )
    pep.enable_batching(max_batch=REQUESTS + 4, max_delay=0.001, gateway=west)
    return west, east, pep


class TestForwardedIntoShardedDomain:
    """A forwarded batch is served like the domain's own traffic: one
    envelope per owning replica, not the whole batch at whichever
    replica rotation picks."""

    def test_served_batch_is_partitioned_by_owner(self):
        network, population, spec, pdps, _, _ = build_tier()
        west, east, pep = build_forwarding_origin(
            network, [pdp.name for pdp in pdps], spec
        )
        requests = list(population.request_contexts(REQUESTS + 4, seed=2))
        granted = drive(network, pep, requests)
        assert granted == reference_decisions(population, requests)
        assert west.forwarded_batches_sent == 1
        assert east.forwarded_batches_served == 1
        assert network.metrics.counters["placement.misrouted"] == 0
        assert sum(pdp.reforwarded_batches for pdp in pdps) == 0
        # Every replica that owns a key in the batch got its own envelope.
        owners = {spec.owner_of(request) for request in requests}
        assert {pdp.name for pdp in pdps if pdp.decisions_made} == owners

    def test_dead_owner_fails_over_through_rotation_past_the_peer_deadline(self):
        """The serving gateway fails over from the dead owner, but its
        envelope's deadline is the origin's peer deadline: the origin
        gives up first and the whole forwarded batch fails safe."""
        network, population, spec, pdps, _, _ = build_tier()
        west, east, pep = build_forwarding_origin(
            network, [pdp.name for pdp in pdps], spec
        )
        pdps[0].crash()
        requests = list(population.request_contexts(REQUESTS + 4, seed=2))
        assert any(spec.owner_of(r) == pdps[0].name for r in requests)
        granted = drive(network, pep, requests)
        assert not any(granted)
        assert east.failovers > 0
        assert west.peer_failures > 0
        assert pep.fail_safe_denials == len(requests)
        assert pdps[0].decisions_made == 0


class TestRebalance:
    def test_join_moves_keys_and_counts_them(self):
        network, population, spec, pdps, pep, _ = build_tier()
        requests = list(population.request_contexts(REQUESTS, seed=4))
        drive(network, pep, requests)
        before = sum(pdp.partition.cardinality for pdp in pdps)
        joined = PolicyDecisionPoint(
            "pdp-3",
            network,
            config=PdpConfig(placement=spec),
            attribute_resolver=population.attribute_resolver(),
        )
        for policy in population.policy_set():
            joined.add_local_policy(policy)
        spec.ring.add_replica("pdp-3")
        pdps.append(joined)
        moved = sum(pdp.rebalance_placement() for pdp in pdps)
        assert 0 < moved < before
        assert network.metrics.counters["placement.moved_keys"] == moved
        assert sum(pdp.partition.cardinality for pdp in pdps) == (
            before - moved
        )
        # Moved keys repopulate on their new owner on next touch, and
        # decisions stay pinned to the reference.
        granted = drive(network, pep, requests)
        assert granted == reference_decisions(population, requests)
        assert sum(pdp.partition.cardinality for pdp in pdps) == before
        for pdp in pdps:
            assert all(pdp.partition.owns(key) for key in pdp.partition.keys())
