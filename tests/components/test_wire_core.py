"""The shared BatchWireCore: one wire machinery, two (plus) tiers.

The per-PEP coalescing queue and the domain gateway used to carry
private copies of the in-flight/failover logic; these tests pin the
post-extraction contract: both tiers delegate to the same core, and a
mid-super-batch replica timeout produces *identical* per-PEP outcomes
whichever tier carried the envelope.
"""

from repro.components import (
    BatchWireCore,
    DecisionDispatcher,
    DomainDecisionGateway,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
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


def alice_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule(
                "alice", subject_resource_action_target(subject_id="alice")
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def request_stream(pep_index: int) -> list[RequestContext]:
    """A deterministic grant/deny mix, distinct per PEP."""
    return [
        RequestContext.simple(subject, f"doc-{pep_index}-{i}", "read")
        for i, subject in enumerate(("alice", "eve", "alice", "mallory"))
    ]


def build_tier(via_gateway: bool, pep_count: int = 2, replicas: int = 2):
    """The same domain twice: per-PEP queues vs one shared gateway."""
    network = Network(seed=47)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(alice_policy())
    pdps = [
        PolicyDecisionPoint(f"pdp-{i}", network, pap_address="pap")
        for i in range(replicas)
    ]
    replica_names = [pdp.name for pdp in pdps]
    gateway = None
    if via_gateway:
        gateway = DomainDecisionGateway(
            "gateway",
            network,
            DecisionDispatcher(replica_names),
            max_batch=16,
            max_delay=0.001,
        )
    peps = []
    for i in range(pep_count):
        pep = PolicyEnforcementPoint(
            f"pep-{i}", network, config=PepConfig(decision_cache_ttl=0.0)
        )
        if via_gateway:
            pep.enable_batching(max_batch=8, max_delay=0.001, gateway=gateway)
        else:
            pep.enable_batching(
                max_batch=8,
                max_delay=0.001,
                dispatcher=DecisionDispatcher(replica_names),
            )
        peps.append(pep)
    return network, pdps, peps, gateway


def drive_outcomes(via_gateway: bool, crash_after: float):
    """Submit every PEP's stream, crash pdp-0 mid-flight, collect results.

    ``crash_after`` is simulated seconds after the envelopes went out —
    early enough that no reply has landed, so the batch is genuinely
    mid-flight when its replica dies.
    """
    network, pdps, peps, gateway = build_tier(via_gateway)
    outcomes: dict[str, list] = {pep.name: [] for pep in peps}
    for pep in peps:
        for request in request_stream(peps.index(pep)):
            pep.submit(request, outcomes[pep.name].append)
        pep.coalescer.flush()
    if gateway is not None:
        gateway.flush()
    network.run(until=network.now + crash_after)
    pdps[0].crash()
    network.run(until=network.now + 10.0)
    return network, pdps, peps, gateway, outcomes


class TestSharedCore:
    def test_both_tiers_delegate_to_the_same_core(self):
        """No private copies left: a queue sends on its PEP's one
        BatchWireCore (``authorize``'s too), the gateway on its own."""
        network, pdps, peps, gateway = build_tier(via_gateway=True)
        queue = peps[0].coalescer
        assert isinstance(queue._wire, BatchWireCore)
        assert queue._wire is peps[0]._wire
        assert isinstance(gateway._wire, BatchWireCore)

    def test_fault_reply_fails_safe_without_failover(self):
        network, pdps, peps, gateway = build_tier(
            via_gateway=True, pep_count=1, replicas=2
        )
        # An unparseable (non-batch) response payload is a forged reply:
        # the core must fail safe, not deliver garbage.
        pdps[0].on(
            "xacml.request.batch",
            lambda message: "<NotABatchStatement/>",
        )
        pdps[1].on(
            "xacml.request.batch",
            lambda message: "<NotABatchStatement/>",
        )
        done = []
        peps[0].submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        peps[0].coalescer.flush()
        network.run(until=network.now + 5.0)
        assert len(done) == 1
        assert done[0].source == "fail-safe"
        assert gateway.failovers == 0  # a bad answer is not a timeout


class TestMidBatchTimeoutEquivalence:
    """The PR 4 regression gate for the wire-core extraction: a replica
    that dies with a super-batch in flight must produce element-wise
    identical per-PEP outcomes through the queue-direct path and the
    gateway path."""

    def test_identical_outcomes_through_queue_and_gateway(self):
        results = {}
        for via_gateway in (False, True):
            network, pdps, peps, gateway, outcomes = drive_outcomes(
                via_gateway, crash_after=0.005
            )
            for pep in peps:
                assert len(outcomes[pep.name]) == 4, (
                    f"{'gateway' if via_gateway else 'queue'} path lost "
                    f"completions for {pep.name}"
                )
                assert pep.fail_safe_denials == 0
            results[via_gateway] = {
                name: [
                    (result.decision, result.source, result.granted)
                    for result in pep_outcomes
                ]
                for name, pep_outcomes in outcomes.items()
            }
        assert results[False] == results[True]

    def test_failover_happened_on_both_paths(self):
        for via_gateway in (False, True):
            network, pdps, peps, gateway, outcomes = drive_outcomes(
                via_gateway, crash_after=0.005
            )
            if via_gateway:
                assert gateway.failovers >= 1
            else:
                assert sum(pep.coalescer.failovers for pep in peps) >= 1
            # The survivor answered everything.
            assert pdps[1].decisions_made > 0

    def test_all_replicas_dead_is_also_equivalent(self):
        results = {}
        for via_gateway in (False, True):
            network, pdps, peps, gateway = build_tier(via_gateway)
            for pdp in pdps:
                pdp.crash()
            outcomes: dict[str, list] = {pep.name: [] for pep in peps}
            for pep in peps:
                for request in request_stream(peps.index(pep)):
                    pep.submit(request, outcomes[pep.name].append)
                pep.coalescer.flush()
            if gateway is not None:
                gateway.flush()
            network.run(until=network.now + 30.0)
            for pep in peps:
                assert len(outcomes[pep.name]) == 4
            results[via_gateway] = {
                name: [
                    (result.decision, result.source) for result in pep_outcomes
                ]
                for name, pep_outcomes in outcomes.items()
            }
            assert all(
                source == "fail-safe"
                for pep_outcomes in results[via_gateway].values()
                for _, source in pep_outcomes
            )
        assert results[False] == results[True]
