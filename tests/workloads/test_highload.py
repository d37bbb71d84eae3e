"""Closed-loop high-load driver: window discipline and measurement."""

import pytest

from repro.components import (
    DecisionDispatcher,
    DomainDecisionGateway,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import Network
from repro.workloads import drive_closed_loop
from repro.xacml import Policy, RequestContext, combining, permit_rule


def build_env(replicas=1, service=False):
    network = Network(seed=61)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(
        Policy(
            policy_id="p",
            rules=(permit_rule("everyone"),),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )
    config = PdpConfig(
        envelope_overhead=0.001 if service else 0.0,
        decision_service_time=0.0001 if service else 0.0,
    )
    pdps = [
        PolicyDecisionPoint(f"pdp-{i}", network, pap_address="pap", config=config)
        for i in range(replicas)
    ]
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp-0",
        config=PepConfig(decision_cache_ttl=0.0),
    )
    dispatcher = (
        DecisionDispatcher([p.name for p in pdps]) if replicas > 1 else None
    )
    pep.enable_batching(max_batch=4, max_delay=0.002, dispatcher=dispatcher)
    return network, pep


def distinct_requests(count):
    return [
        RequestContext.simple(f"user-{i}", f"res-{i % 7}", "read")
        for i in range(count)
    ]


def test_completes_every_request():
    network, pep = build_env()
    stats = drive_closed_loop([pep], [distinct_requests(40)], 8).fleet
    assert stats.submitted == 40
    assert stats.completed == 40
    assert stats.granted == 40
    assert stats.denied == 0
    assert stats.decisions_per_sec > 0
    assert stats.messages_per_decision > 0
    assert stats.queue_latency.count == 40


def test_concurrency_window_is_respected():
    network, pep = build_env(service=True)
    observed = {"max": 0}
    queue = pep.coalescer
    original_submit = queue.submit

    def tracking_submit(request, callback):
        outstanding = queue.pending_count + sum(
            len(b.items) for b in queue._wire._inflight.values()
        )
        observed["max"] = max(observed["max"], outstanding)
        return original_submit(request, callback)

    queue.submit = tracking_submit
    pep.coalescer = queue
    drive_closed_loop([pep], [distinct_requests(30)], 5)
    assert observed["max"] <= 5


def test_cache_hits_complete_synchronously():
    network, pep = build_env()
    pep.config = PepConfig(decision_cache_ttl=600.0)
    pep.decision_cache.ttl = 600.0
    request = RequestContext.simple("user-0", "res", "read")
    stats = drive_closed_loop([pep], [[request] * 20], 4).fleet
    assert stats.completed == 20
    # Only the first submission crossed the wire; 19 were dedup/cache.
    assert stats.queue_latency.count <= 4


def test_rejects_non_positive_concurrency():
    network, pep = build_env()
    with pytest.raises(ValueError, match="concurrency"):
        drive_closed_loop([pep], [distinct_requests(2)], 0)


def build_domain_env(pep_count=3, gateway=True, service=True):
    network = Network(seed=62)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(
        Policy(
            policy_id="p",
            rules=(permit_rule("everyone"),),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )
    config = PdpConfig(
        envelope_overhead=0.001 if service else 0.0,
        decision_service_time=0.0001 if service else 0.0,
    )
    pdps = [
        PolicyDecisionPoint(f"pdp-{i}", network, pap_address="pap", config=config)
        for i in range(2)
    ]
    hub = (
        DomainDecisionGateway(
            "gateway",
            network,
            DecisionDispatcher([p.name for p in pdps]),
            max_batch=16,
            max_delay=0.001,
        )
        if gateway
        else None
    )
    peps = []
    for i in range(pep_count):
        pep = PolicyEnforcementPoint(
            f"pep-{i}", network, config=PepConfig(decision_cache_ttl=0.0)
        )
        if hub is not None:
            pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hub)
        else:
            pep.enable_batching(
                max_batch=4,
                max_delay=0.001,
                dispatcher=DecisionDispatcher([p.name for p in pdps]),
            )
        peps.append(pep)
    return network, peps, hub


class TestMultiPepDriver:
    def test_completes_every_pep_sequence(self):
        network, peps, hub = build_domain_env()
        stats = drive_closed_loop(
            peps, [distinct_requests(20) for _ in peps], concurrency=4
        )
        assert stats.fleet.offered_concurrency == 12
        assert stats.fleet.submitted == 60
        assert stats.fleet.completed == 60
        assert stats.fleet.granted == 60
        assert [s.completed for s in stats.per_pep] == [20, 20, 20]
        assert all(s.queue_latency.count > 0 for s in stats.per_pep)
        assert stats.fleet.decisions_per_sec > 0
        assert hub.super_batches_sent > 0

    def test_uneven_sequences_complete(self):
        network, peps, hub = build_domain_env(pep_count=2)
        stats = drive_closed_loop(
            peps,
            [distinct_requests(15), distinct_requests(3)],
            concurrency=4,
        )
        assert [s.completed for s in stats.per_pep] == [15, 3]
        assert stats.fleet.completed == 18

    def test_works_without_gateway(self):
        network, peps, hub = build_domain_env(gateway=False)
        stats = drive_closed_loop(
            peps, [distinct_requests(8) for _ in peps], concurrency=4
        )
        assert stats.fleet.completed == 24

    def test_per_pep_latency_series_are_disjoint(self):
        network, peps, hub = build_domain_env(pep_count=2)
        stats = drive_closed_loop(
            peps,
            [distinct_requests(10), distinct_requests(10)],
            concurrency=2,
        )
        total = sum(s.queue_latency.count for s in stats.per_pep)
        assert total == stats.fleet.queue_latency.count == 20

    def test_rejects_mismatched_sequences(self):
        network, peps, hub = build_domain_env(pep_count=2)
        with pytest.raises(ValueError, match="request sequences"):
            drive_closed_loop(peps, [distinct_requests(2)], concurrency=1)
        with pytest.raises(ValueError, match="concurrency"):
            drive_closed_loop(
                peps, [distinct_requests(2), distinct_requests(2)],
                concurrency=0,
            )
        with pytest.raises(ValueError, match="at least one"):
            drive_closed_loop([], [], concurrency=1)
