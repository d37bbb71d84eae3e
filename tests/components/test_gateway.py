"""Domain decision gateway: aggregation, dedup, fairness, failover."""

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


def build_domain(
    pep_count=2,
    replicas=2,
    gateway_batch=16,
    gateway_delay=0.001,
    fairness_cap=None,
    pep_batch=4,
    pdp_config=None,
    pep_config=None,
):
    network = Network(seed=71)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(alice_policy())
    pdps = [
        PolicyDecisionPoint(
            f"pdp-{i}", network, pap_address="pap", config=pdp_config
        )
        for i in range(replicas)
    ]
    dispatcher = DecisionDispatcher([pdp.name for pdp in pdps])
    gateway = DomainDecisionGateway(
        "gateway",
        network,
        dispatcher,
        max_batch=gateway_batch,
        max_delay=gateway_delay,
        fairness_cap=fairness_cap,
    )
    peps = []
    for i in range(pep_count):
        pep = PolicyEnforcementPoint(
            f"pep-{i}",
            network,
            config=pep_config or PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(
            max_batch=pep_batch, max_delay=0.001, gateway=gateway
        )
        peps.append(pep)
    return network, pdps, peps, gateway


class TestRegistrationAndFlush:

    def test_merges_flushes_from_multiple_peps_into_one_envelope(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=2, replicas=1, pep_batch=2
        )
        done = []
        for pep_index, pep in enumerate(peps):
            for i in range(2):  # fills each PEP queue -> immediate flush
                pep.submit(
                    RequestContext.simple(
                        "alice", f"doc-{pep_index}-{i}", "read"
                    ),
                    done.append,
                )
        network.run(until=network.now + 1.0)
        assert len(done) == 4
        assert all(result.granted for result in done)
        assert gateway.flushes_received == 2
        # Both flushes merged into one super-batch envelope.
        assert gateway.super_batches_sent == 1
        assert pdps[0].batch_queries_served == 1
        assert pdps[0].decisions_made == 4

    def test_flush_on_gateway_delay(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=1, replicas=1, gateway_batch=100, gateway_delay=0.5
        )
        done = []
        peps[0].submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        network.run(until=network.now + 0.3)
        assert gateway.super_batches_sent == 0  # PEP flushed, gateway waits
        network.run(until=network.now + 1.0)
        assert gateway.super_batches_sent == 1
        assert gateway.flushes_on_delay == 1
        assert len(done) == 1 and done[0].granted

    def test_flush_on_gateway_size(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=2, replicas=1, gateway_batch=4, gateway_delay=60.0,
            pep_batch=2,
        )
        done = []
        for pep_index, pep in enumerate(peps):
            for i in range(2):
                pep.submit(
                    RequestContext.simple(
                        "alice", f"doc-{pep_index}-{i}", "read"
                    ),
                    done.append,
                )
        assert gateway.flushes_on_size == 1  # 4 unique slots hit the cap
        network.run(until=network.now + 1.0)
        assert len(done) == 4

    def test_oversized_backlog_drains_as_capped_envelopes(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=1, replicas=1, gateway_batch=3, gateway_delay=60.0,
            pep_batch=8,
        )
        done = []
        for i in range(8):
            peps[0].submit(
                RequestContext.simple("alice", f"doc-{i}", "read"),
                done.append,
            )
        network.run(until=network.now + 1.0)
        assert len(done) == 8
        # 8 unique slots, envelope cap 3 -> 3 super-batches (3+3+2).
        assert gateway.super_batches_sent == 3


class TestCrossPepDedup:
    def test_identical_requests_share_one_wire_slot(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=3, replicas=1, pep_batch=1
        )
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        for pep in peps:
            pep.submit(request, done.append)
        network.run(until=network.now + 1.0)
        assert len(done) == 3
        assert all(result.granted for result in done)
        assert gateway.cross_pep_deduplicated == 2
        # One decision evaluated; three deliveries demultiplexed.
        assert pdps[0].decisions_made == 1
        assert gateway.decisions_delivered == 3
        # Every PEP enforced (and counted) its own grant.
        assert [pep.grants for pep in peps] == [1, 1, 1]

    def test_dedup_keys_stay_scoped_per_pep(self):
        """The in-flight dedup key carries the owning PEP's identity, so
        identical-looking requests from different PEPs can never collide
        in shared bookkeeping (the gateway bugfix)."""
        network, pdps, peps, gateway = build_domain(pep_count=2)
        request = RequestContext.simple("alice", "doc", "read")
        keys = [pep.coalescer.scoped_key(request.cache_key()) for pep in peps]
        assert keys[0] != keys[1]
        assert keys[0][1] == keys[1][1]  # same bare request identity

    def test_shared_slot_enforces_per_pep_obligations(self):
        """Two PEPs share a wire slot but not an enforcement outcome:
        the PEP missing the obligation handler must deny while its
        sibling grants."""
        from repro.xacml import Decision, Obligation

        network = Network(seed=72)
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
        pdp = PolicyDecisionPoint("pdp", network, pap_address="pap")
        dispatcher = DecisionDispatcher(["pdp"])
        gateway = DomainDecisionGateway("gateway", network, dispatcher)
        peps = []
        for i in range(2):
            pep = PolicyEnforcementPoint(
                f"pep-{i}", network, config=PepConfig(decision_cache_ttl=0.0)
            )
            pep.enable_batching(max_batch=1, max_delay=0.001, gateway=gateway)
            peps.append(pep)
        peps[0].register_obligation_handler(
            "urn:test:audit", lambda ob, req: True
        )
        done = {0: [], 1: []}
        request = RequestContext.simple("alice", "doc", "read")
        peps[0].submit(request, done[0].append)
        peps[1].submit(request, done[1].append)
        network.run(until=network.now + 1.0)
        assert gateway.cross_pep_deduplicated == 1
        assert pdp.decisions_made == 1
        assert done[0][0].granted
        assert not done[1][0].granted
        assert done[1][0].source == "obligation"
        assert peps[0].grants == 1 and peps[1].obligation_failures == 1


class TestFairness:
    def test_round_robin_represents_every_backlogged_pep(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=2, replicas=1, gateway_batch=4, gateway_delay=60.0,
            pep_batch=16,
        )
        # Chatty pep-0 floods 6 requests; quiet pep-1 sends 1.
        for i in range(6):
            peps[0].submit(
                RequestContext.simple("alice", f"doc-{i}", "read"),
                lambda r: None,
            )
        peps[1].submit(
            RequestContext.simple("alice", "quiet-doc", "read"),
            lambda r: None,
        )
        peps[1].coalescer.flush()  # 1 slot: gateway starts its delay timer
        peps[0].coalescer.flush()  # 7 slots >= 4: drains as two envelopes
        # The paced drain puts the first envelope on the wire now; the
        # second follows after the first finishes serialising.
        first = list(gateway._wire._inflight.values())
        assert [len(batch.items) for batch in first] == [4]
        # The quiet PEP's single slot made the first envelope despite the
        # chatty PEP's larger backlog.
        owners = [slot.owner for slot in first[0].items]
        assert owners.count("pep-1") == 1
        network.run(until=network.now + 1.0)
        assert gateway.super_batches_sent == 2

    def test_fairness_cap_bounds_chatty_share(self):
        network, pdps, peps, gateway = build_domain(
            pep_count=2, replicas=1, gateway_batch=8, gateway_delay=60.0,
            fairness_cap=2, pep_batch=16,
        )
        for i in range(6):
            peps[0].submit(
                RequestContext.simple("alice", f"doc-{i}", "read"),
                lambda r: None,
            )
        peps[1].submit(
            RequestContext.simple("alice", "quiet-doc", "read"),
            lambda r: None,
        )
        peps[0].coalescer.flush()
        peps[1].coalescer.flush()
        batch = gateway._take_super_batch()
        owners = [slot.owner for slot in batch]
        # Chatty pep-0 is capped at 2 slots even though the envelope had
        # room; its remaining 4 are deferred to the next super-batch.
        assert owners.count("pep-0") == 2
        assert owners.count("pep-1") == 1
        assert gateway.fairness_deferrals == 4
        second = gateway._take_super_batch()
        assert [slot.owner for slot in second] == ["pep-0", "pep-0"]

    def test_parameters_validated(self):
        network = Network(seed=73)
        dispatcher = DecisionDispatcher(["pdp"])
        with pytest.raises(ValueError, match="max_batch"):
            DomainDecisionGateway("g1", network, dispatcher, max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            DomainDecisionGateway("g2", network, dispatcher, max_delay=-1.0)
        with pytest.raises(ValueError, match="fairness_cap"):
            DomainDecisionGateway("g3", network, dispatcher, fairness_cap=0)


class TestSecureChannel:
    def build_secure_domain(self, replicas=2):
        from repro.wss import KeyStore
        from repro.wss.pki import CertificateAuthority, TrustValidator
        from repro.components import ComponentIdentity

        network = Network(seed=76)
        keystore = KeyStore(seed=76)
        ca = CertificateAuthority("domain-ca", keystore)

        def identity(name):
            keypair = keystore.generate(label=name)
            return ComponentIdentity(
                name=name,
                keypair=keypair,
                certificate=ca.issue(name, keypair.public, 0.0, 1e9),
                keystore=keystore,
                validator=TrustValidator(keystore, anchors=[ca]),
            )

        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(alice_policy())
        pdps = [
            PolicyDecisionPoint(
                f"pdp-{i}",
                network,
                pap_address="pap",
                identity=identity(f"pdp-{i}"),
                config=PdpConfig(require_signed_queries=True),
            )
            for i in range(replicas)
        ]
        gateway = DomainDecisionGateway(
            "gateway",
            network,
            DecisionDispatcher([pdp.name for pdp in pdps]),
            identity=identity("gateway"),
            max_batch=8,
            max_delay=0.001,
        )
        peps = []
        for i in range(2):
            pep = PolicyEnforcementPoint(
                f"pep-{i}", network, config=PepConfig(decision_cache_ttl=0.0)
            )
            pep.enable_batching(max_batch=2, max_delay=0.001, gateway=gateway)
            peps.append(pep)
        return network, pdps, peps, gateway

    def test_signed_super_batch_round_trip(self):
        """The gateway signs one envelope for the whole domain's batch and
        verifies the replica's signed reply; PEPs need no identity."""
        network, pdps, peps, gateway = self.build_secure_domain()
        done = []
        for pep_index, pep in enumerate(peps):
            pep.submit(
                RequestContext.simple("alice", f"doc-{pep_index}", "read"),
                done.append,
            )
            pep.submit(
                RequestContext.simple("eve", f"doc-{pep_index}", "read"),
                done.append,
            )
        network.run(until=network.now + 1.0)
        assert len(done) == 4
        assert sum(result.granted for result in done) == 2  # alice only
        assert gateway.super_batches_sent == 1
        assert all(pep.fail_safe_denials == 0 for pep in peps)
        assert pdps[0].rejected_queries == 0

    def test_secure_failover_mid_super_batch(self):
        network, pdps, peps, gateway = self.build_secure_domain()
        pdps[0].crash()
        done = []
        peps[0].submit(
            RequestContext.simple("alice", "doc", "read"), done.append
        )
        peps[0].coalescer.flush()
        network.run(until=network.now + 10.0)
        assert len(done) == 1 and done[0].granted
        assert gateway.failovers == 1


class TestFailover:
    def test_super_batch_fails_over_to_next_replica(self):
        network, pdps, peps, gateway = build_domain(pep_count=2, replicas=2)
        pdps[0].crash()
        done = []
        for pep in peps:
            pep.submit(
                RequestContext.simple("alice", f"doc-{pep.name}", "read"),
                done.append,
            )
            pep.coalescer.flush()
        network.run(until=network.now + 10.0)
        assert len(done) == 2
        assert all(result.granted for result in done)
        assert gateway.failovers >= 1
        assert all(pep.fail_safe_denials == 0 for pep in peps)
        assert pdps[1].decisions_made == 2

    def test_all_replicas_dead_fail_safe_denies_every_pep(self):
        network, pdps, peps, gateway = build_domain(pep_count=2, replicas=2)
        for pdp in pdps:
            pdp.crash()
        done = []
        for pep in peps:
            pep.submit(
                RequestContext.simple("alice", "doc", "read"), done.append
            )
            pep.coalescer.flush()
        network.run(until=network.now + 30.0)
        assert len(done) == 2
        assert all(not result.granted for result in done)
        assert all(result.source == "fail-safe" for result in done)
        assert all(pep.fail_safe_denials == 1 for pep in peps)

    def test_late_joiner_rides_failover_resend(self):
        """An entry that dedups onto an in-flight slot still completes
        when that slot fails over to a healthy replica."""
        network, pdps, peps, gateway = build_domain(
            pep_count=2, replicas=2, pep_batch=1
        )
        pdps[0].crash()
        done = []
        request = RequestContext.simple("alice", "doc", "read")
        peps[0].submit(request, done.append)
        network.run(until=network.now + 0.5)  # in flight towards dead pdp-0
        peps[1].submit(request, done.append)  # joins the in-flight slot
        network.run(until=network.now + 10.0)
        assert len(done) == 2
        assert all(result.granted for result in done)
        assert gateway.cross_pep_deduplicated == 1
        assert pdps[1].decisions_made == 1


class TestWorkerModel:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="worker_count"):
            PdpConfig(worker_count=0)

    def test_workers_parallelise_decision_cost_not_envelope_cost(self):
        def service_duration(worker_count):
            network = Network(seed=74)
            pap = PolicyAdministrationPoint("pap", network)
            pap.publish(alice_policy())
            pdp = PolicyDecisionPoint(
                "pdp",
                network,
                pap_address="pap",
                config=PdpConfig(
                    envelope_overhead=0.010,
                    decision_service_time=0.004,
                    worker_count=worker_count,
                ),
            )
            pep = PolicyEnforcementPoint(
                "pep", network, pdp_address="pdp",
                config=PepConfig(decision_cache_ttl=0.0),
            )
            pep.enable_batching(max_batch=4, max_delay=0.001)
            done = []
            started = network.now
            for i in range(4):
                pep.submit(
                    RequestContext.simple("alice", f"doc-{i}", "read"),
                    done.append,
                )
            network.run(until=network.now + 5.0)
            assert len(done) == 4
            return network.now, started, pdp

        # One envelope of 4 decisions: cost = 0.010 + 4 * 0.004 / workers.
        durations = {}
        for workers in (1, 2, 4):
            now, started, pdp = service_duration(workers)
            durations[workers] = pdp._busy_until
        # abs tolerance swallows the few-byte wire-size differences
        # (message ids vary in length across a full-suite run) while
        # staying far below the 4/8 ms deltas being asserted.
        assert durations[1] == pytest.approx(
            durations[2] + 0.008, abs=1e-5
        )
        assert durations[2] == pytest.approx(
            durations[4] + 0.004, abs=1e-5
        )
        # The envelope overhead floor is not divided away.
        assert durations[4] > 0.010

    def test_lone_decision_costs_full_service_time(self):
        """The worker model is a makespan: one decision cannot be split
        across workers, so its cost is one full decision service time
        no matter how many workers the replica has."""

        def busy_after_one_decision(worker_count):
            network = Network(seed=77)
            pap = PolicyAdministrationPoint("pap", network)
            pap.publish(alice_policy())
            pdp = PolicyDecisionPoint(
                "pdp",
                network,
                pap_address="pap",
                config=PdpConfig(
                    envelope_overhead=0.010,
                    decision_service_time=0.004,
                    worker_count=worker_count,
                ),
            )
            pep = PolicyEnforcementPoint(
                "pep", network, pdp_address="pdp",
                config=PepConfig(decision_cache_ttl=0.0),
            )
            pep.enable_batching(max_batch=1, max_delay=0.001)
            done = []
            pep.submit(
                RequestContext.simple("alice", "doc", "read"), done.append
            )
            network.run(until=network.now + 5.0)
            assert len(done) == 1
            return pdp._busy_until

        # ceil(1/w) == 1 for every w: 10 ms envelope + 4 ms decision.
        assert busy_after_one_decision(4) == pytest.approx(
            busy_after_one_decision(1), abs=1e-5
        )
