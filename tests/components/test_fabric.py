"""Decision fabric: dispatcher policies, coalescing queue, failover."""

import pytest

from repro.components import (
    CoalescingDecisionQueue,
    DecisionDispatcher,
    LeastOutstandingRouting,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import Network
from repro.xacml import (
    Decision,
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
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build_env(replicas=2, pdp_config=None, pep_config=None):
    network = Network(seed=51)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(alice_policy())
    pdps = [
        PolicyDecisionPoint(
            f"pdp-{i}", network, pap_address="pap", config=pdp_config
        )
        for i in range(replicas)
    ]
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp-0",
        config=pep_config or PepConfig(decision_cache_ttl=0.0),
    )
    return network, pdps, pep


class TestDecisionDispatcher:
    def test_round_robin_rotates(self):
        dispatcher = DecisionDispatcher(["a", "b", "c"])
        assert [dispatcher.select() for _ in range(4)] == ["a", "b", "c", "a"]

    def test_round_robin_skips_excluded(self):
        dispatcher = DecisionDispatcher(["a", "b", "c"])
        assert dispatcher.select(exclude=["a"]) in ("b", "c")
        assert dispatcher.select(exclude=["a", "b", "c"]) is None

    def test_least_outstanding_prefers_idle_replica(self):
        dispatcher = DecisionDispatcher(
            ["a", "b"], policy=LeastOutstandingRouting()
        )
        dispatcher.note_sent("a")
        dispatcher.note_sent("a")
        dispatcher.note_sent("b")
        assert dispatcher.select() == "b"
        dispatcher.note_done("a")
        dispatcher.note_done("a")
        assert dispatcher.select() == "a"

    def test_least_outstanding_rotates_through_ties(self):
        """With one ``authorize`` outstanding the counts are zero at
        every select; ties must rotate rather than pin replica 0."""
        network, pdps, pep = build_env(replicas=3)
        pep.dispatcher = DecisionDispatcher(
            [p.name for p in pdps], policy=LeastOutstandingRouting()
        )
        for index in range(6):
            pep.authorize_simple("alice", f"doc-{index}", "read")
        assert [p.decisions_made for p in pdps] == [2, 2, 2]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            DecisionDispatcher(["a"], policy="random")

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DecisionDispatcher([])


class TestCoalescingQueue:
    def test_flush_on_max_batch_size(self):
        network, pdps, pep = build_env(replicas=1)
        queue = pep.enable_batching(max_batch=3, max_delay=60.0)
        done = []
        for subject in ("alice", "eve", "mallory"):
            pep.submit(
                RequestContext.simple(subject, "doc", "read"), done.append
            )
        assert queue.batches_sent == 1  # size trigger, not the 60 s timer
        network.run(until=network.now + 1.0)
        assert len(done) == 3
        assert done[0].granted and not done[1].granted
        assert queue.flushes_on_size == 1

    def test_flush_on_max_delay(self):
        network, pdps, pep = build_env(replicas=1)
        queue = pep.enable_batching(max_batch=100, max_delay=0.5)
        done = []
        pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
        network.run(until=network.now + 0.3)
        assert queue.batches_sent == 0  # still inside the window
        network.run(until=network.now + 1.0)
        assert queue.batches_sent == 1
        assert queue.flushes_on_delay == 1
        assert len(done) == 1 and done[0].granted

    def test_identical_inflight_requests_deduplicate(self):
        network, pdps, pep = build_env(replicas=1)
        queue = pep.enable_batching(max_batch=2, max_delay=0.01)
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        pep.submit(request, done.append)
        pep.submit(request, done.append)  # joins the pending slot
        network.run(until=network.now + 0.02)  # delay flush fires
        pep.submit(request, done.append)  # joins the *in-flight* batch
        network.run(until=network.now + 1.0)
        assert len(done) == 3
        assert all(result.granted for result in done)
        assert queue.deduplicated == 2
        assert pdps[0].decisions_made == 1
        assert pep.enforcements == 3

    def test_guard_and_cache_complete_synchronously(self):
        network, pdps, pep = build_env(
            replicas=1, pep_config=PepConfig(decision_cache_ttl=60.0)
        )
        pep.revocation_guard = lambda request, then: then(
            "revoked" if request.subject_id == "mallory" else None
        )
        queue = pep.enable_batching(max_batch=10, max_delay=0.01)
        done = []
        assert pep.submit(
            RequestContext.simple("mallory", "doc", "read"), done.append
        )
        assert done[0].source == "revocation"
        pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
        network.run(until=network.now + 1.0)
        assert done[1].source == "pdp"
        # Now cached: the second submission never touches the queue.
        assert pep.submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        assert done[2].source == "cache"
        assert queue.batches_sent == 1

    def test_timeout_fails_over_to_next_replica(self):
        network, pdps, pep = build_env(replicas=2)
        dispatcher = DecisionDispatcher([p.name for p in pdps])
        queue = pep.enable_batching(
            max_batch=2, max_delay=0.01, dispatcher=dispatcher
        )
        pdps[0].crash()
        done = []
        pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
        network.run(until=network.now + 10.0)
        assert len(done) == 1
        assert done[0].granted
        assert done[0].source == "pdp"
        assert queue.failovers == 1
        assert pep.fail_safe_denials == 0

    def test_all_replicas_dead_fail_safe_denies(self):
        network, pdps, pep = build_env(replicas=2)
        dispatcher = DecisionDispatcher([p.name for p in pdps])
        pep.enable_batching(
            max_batch=2, max_delay=0.01, dispatcher=dispatcher
        )
        for pdp in pdps:
            pdp.crash()
        done = []
        pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
        network.run(until=network.now + 30.0)
        assert len(done) == 1
        assert not done[0].granted
        assert done[0].source == "fail-safe"
        assert pep.fail_safe_denials == 1

    def test_ring_of_one_timeout_fails_safe_after_one_attempt(self):
        network, pdps, pep = build_env(replicas=1)
        assert pep.dispatcher.replicas == [pdps[0].name]
        queue = pep.enable_batching(max_batch=1, max_delay=0.01)
        pdps[0].crash()
        sent = network.metrics.messages_sent
        done = []
        pep.submit(RequestContext.simple("alice", "doc", "read"), done.append)
        network.run(until=network.now + 30.0)
        assert len(done) == 1
        assert done[0].source == "fail-safe"
        assert network.metrics.messages_sent - sent == 1
        assert queue.failovers == 0
        # authorize: one attempt, one deadline, then fail safe.
        sent, start = network.metrics.messages_sent, network.now
        result = pep.authorize_simple("alice", "doc", "read")
        assert result.source == "fail-safe"
        assert network.metrics.messages_sent - sent == 1
        assert network.now - start == pytest.approx(pep.config.pdp_timeout)

    def test_submit_without_enable_batching_rejected(self):
        network, pdps, pep = build_env(replicas=1)
        with pytest.raises(ValueError, match="enable_batching"):
            pep.submit(
                RequestContext.simple("alice", "doc", "read"), lambda r: None
            )

    def test_queue_parameters_validated(self):
        network, pdps, pep = build_env(replicas=1)
        with pytest.raises(ValueError, match="max_batch"):
            CoalescingDecisionQueue(pep, max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            CoalescingDecisionQueue(pep, max_delay=-1.0)

    def test_obligation_runs_per_waiter(self):
        """Deduplicated waiters each get their own obligation enforcement."""
        from repro.xacml import Obligation

        network = Network(seed=52)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(
            Policy(
                policy_id="ob",
                rules=(permit_rule("all"),),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
                obligations=(
                    Obligation(
                        obligation_id="urn:test:audit",
                        fulfill_on=Decision.PERMIT,
                    ),
                ),
            )
        )
        PolicyDecisionPoint("pdp", network, pap_address="pap")
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=0.0),
        )
        audits = []
        pep.register_obligation_handler(
            "urn:test:audit", lambda ob, req: audits.append(req) or True
        )
        pep.enable_batching(max_batch=10, max_delay=0.01)
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        pep.submit(request, done.append)
        pep.submit(request, done.append)
        network.run(until=network.now + 1.0)
        assert len(done) == 2
        assert all(result.granted for result in done)
        assert len(audits) == 2  # one audit per waiter, not per wire slot
