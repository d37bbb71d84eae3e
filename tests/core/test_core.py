"""Tests for the core facade: system, dependability, discovery, audit, sequences."""

import pytest

from repro.core import (
    AccessControlSystem,
    AuditLog,
    AuditRecord,
    ClientAgent,
    HealthProber,
    HeartbeatMonitor,
    PdpCluster,
    QuorumClient,
    SystemConfig,
    discovering_dispatcher,
    pull_sequence,
    push_sequence,
    register_pdp,
)
from repro.components import (
    QUERY_ACTION,
    Component,
    DecisionDispatcher,
    HealthyFirstRouting,
    PepConfig,
)
from repro.domain import build_federation
from repro.saml import XacmlAuthzDecisionStatement
from repro.simnet import Network
from repro.wss import KeyStore
from repro.core.audit import AUDIT_CAPACITY
from repro.wsvc import ServiceRegistry
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    ResponseContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def simple_policy(resource_id="db", subject_id="alice"):
    return Policy(
        policy_id=f"policy-{resource_id}",
        rules=(
            permit_rule(
                "allow", subject_resource_action_target(subject_id=subject_id)
            ),
            deny_rule("deny-rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=resource_id),
    )


def voted(network, client, request):
    """Drive one quorum evaluation to its outcome."""
    outcomes = []
    client.evaluate(request, outcomes.append)
    network.loop.run_until(outcomes.__len__, network.now + 60.0)
    (outcome,) = outcomes
    return outcome


@pytest.fixture
def vo_env():
    network = Network(seed=43)
    keystore = KeyStore(seed=43)
    vo = build_federation("vo", ["acme"], network, keystore)
    return network, keystore, vo.domain("acme")


class TestAuditLog:
    def record(self, log, decision=Decision.PERMIT, subject="alice", source="pdp"):
        log.record(
            AuditRecord(
                at=0.0,
                domain="d",
                pep="pep",
                subject_id=subject,
                resource_id="r",
                action_id="read",
                decision=decision,
                source=source,
            )
        )

    def test_filtering(self):
        log = AuditLog()
        self.record(log, subject="alice")
        self.record(log, subject="bob", decision=Decision.DENY)
        records = log.records()
        assert [r.subject_id for r in records if r.subject_id == "alice"] == ["alice"]
        assert [r.subject_id for r in records if r.resource_id == "r"] == ["alice", "bob"]
        assert [r for r in records if r.resource_id == "elsewhere"] == []

    def test_denial_rate(self):
        log = AuditLog()
        self.record(log)
        self.record(log, decision=Decision.DENY)
        assert log.denial_rate() == pytest.approx(0.5)

    def test_capacity(self):
        log = AuditLog()
        self.record(log)
        (record,) = log.records()
        for _ in range(AUDIT_CAPACITY):
            log.record(record)
        assert len(log) == AUDIT_CAPACITY
        assert log.dropped == 1


class TestAccessControlSystem:
    def test_single_pdp_system(self, vo_env):
        network, _, domain = vo_env
        system = AccessControlSystem(domain)
        system.protect("db")
        system.publish_policy(simple_policy())
        assert system.authorize("alice", "db", "read").granted
        assert not system.authorize("eve", "db", "read").granted
        assert len(system.audit) == 2

    def test_meta_policy_veto_recorded(self, vo_env):
        from repro.admin import ChineseWallMetaPolicy
        from repro.models import ChineseWallEngine

        network, _, domain = vo_env
        wall = ChineseWallEngine()
        wall.register_dataset("db", "rivals")
        wall.register_dataset("db2", "rivals")
        system = AccessControlSystem(domain)
        system.meta_policies.add(ChineseWallMetaPolicy("wall", wall))
        system.protect("db")
        system.protect("db2")
        system.publish_policy(simple_policy("db"))
        system.publish_policy(simple_policy("db2"))
        assert system.authorize("alice", "db", "read").granted
        second = system.authorize("alice", "db2", "read")
        assert not second.granted
        assert second.source == "meta-policy"
        assert system.stats()["meta_policy_vetoes"] == 1

    def test_unprotected_resource_raises(self, vo_env):
        _, _, domain = vo_env
        system = AccessControlSystem(domain)
        with pytest.raises(KeyError):
            system.authorize("alice", "ghost", "read")

    def test_replicated_system_survives_crash(self, vo_env):
        network, _, domain = vo_env
        system = AccessControlSystem(
            domain, config=SystemConfig(pdp_replicas=3, heartbeat_period=0.2)
        )
        system.protect("db")
        system.publish_policy(simple_policy())
        assert system.authorize("alice", "db", "read").granted
        system.cluster.replicas[0].crash()
        network.run(until=network.now + 1.5)  # let heartbeats detect
        result = system.authorize("alice", "db", "read")
        assert result.granted
        assert result.source == "pdp"
        assert system.dispatcher.routing.passed_over >= 1


class TestHeartbeatAndFailover:
    def test_suspicion_and_clear(self, vo_env):
        network, _, domain = vo_env
        cluster = PdpCluster(domain, replicas=2)
        monitor = HeartbeatMonitor(
            "hb", network, cluster.addresses, period=0.2, miss_threshold=2
        )
        monitor.start()
        network.run(until=network.now + 1.0)
        assert not any(map(monitor.is_suspected, cluster.addresses))
        cluster.replicas[0].crash()
        network.run(until=network.now + 1.5)
        assert monitor.is_suspected(cluster.addresses[0])
        cluster.replicas[0].recover()
        network.run(until=network.now + 1.5)
        assert not monitor.is_suspected(cluster.addresses[0])
        assert monitor.suspicions_cleared >= 1

    def test_a_crashed_monitor_suspects_nobody(self, vo_env):
        """A monitor that is down judges nobody: the round a crash cuts
        short counts nothing, and the rounds due while it is down run
        nothing — they used to book its own dead waits as the replicas'
        misses, suspect all three live replicas and make ``authorize``
        fail safe with "no PDP reachable".  After recovery it detects a
        real crash again."""
        network, _, domain = vo_env
        system = AccessControlSystem(
            domain, config=SystemConfig(pdp_replicas=3, heartbeat_period=0.2)
        )
        system.protect("db")
        system.publish_policy(simple_policy())
        monitor, addresses = system.monitor, system.cluster.addresses
        sent = monitor.heartbeats_sent
        network.loop.run_until(lambda: monitor.heartbeats_sent > sent, network.now + 1.0)
        monitor.crash()  # with a ping on the wire
        network.run(until=network.now + 2.0)
        assert not any(map(monitor.is_suspected, addresses))
        assert monitor.heartbeats_sent == sent + 1
        result = system.authorize("alice", "db", "read")
        assert result.granted and result.source == "pdp"
        monitor.recover()
        system.cluster.replicas[0].crash()
        network.run(until=network.now + 1.5)
        assert [monitor.is_suspected(address) for address in addresses] == [
            True, False, False
        ]  # fmt: skip

    def test_healthy_first_routing_prefers_first_unsuspected(self, vo_env):
        network, _, domain = vo_env
        cluster = PdpCluster(domain, replicas=3)
        monitor = HeartbeatMonitor("hb", network, cluster.addresses, period=0.2)
        monitor.start()
        dispatcher = DecisionDispatcher(
            cluster.addresses,
            HealthyFirstRouting(lambda address: not monitor.is_suspected(address)),
        )
        assert dispatcher.select() == cluster.addresses[0]
        cluster.replicas[0].crash()
        network.run(until=network.now + 1.5)
        assert dispatcher.select() == cluster.addresses[1]
        assert dispatcher.routing.passed_over == 1

    def test_every_replica_suspected_fails_safe_without_sending(self, vo_env):
        network, _, domain = vo_env
        system = AccessControlSystem(
            domain, config=SystemConfig(pdp_replicas=2, heartbeat_period=0.2)
        )
        system.protect("db")
        system.publish_policy(simple_policy())
        system.cluster.replicas[0].crash()
        system.cluster.replicas[1].crash()
        network.run(until=network.now + 1.5)
        sent, now = network.metrics.messages_sent, network.now
        result = system.authorize("alice", "db", "read")
        assert result.source == "fail-safe"
        assert network.metrics.messages_sent == sent
        assert network.now == now

    def test_undetected_crash_fails_over_within_one_timeout(self, vo_env):
        """A replica that crashed before the heartbeat noticed costs one
        ``pdp_timeout``; the next healthy replica answers."""
        network, _, domain = vo_env
        timeout = PepConfig().pdp_timeout
        system = AccessControlSystem(
            domain, config=SystemConfig(pdp_replicas=3, heartbeat_period=5.0)
        )
        system.protect("db")
        system.publish_policy(simple_policy())
        system.cluster.replicas[0].crash()
        start = network.now
        result = system.authorize("alice", "db", "read")
        assert result.granted and result.source == "pdp"
        assert timeout <= network.now - start < timeout + 0.1
        assert system.dispatcher.failovers == 1
        assert system.cluster.replicas[1].decisions_made == 1


class TestQuorum:
    def test_unanimous_permit(self, vo_env):
        network, _, domain = vo_env
        domain.pap.publish(simple_policy())
        cluster = PdpCluster(domain, replicas=3)
        client = QuorumClient("qc", network, cluster.addresses, quorum=2)
        outcome = voted(network, client, RequestContext.simple("alice", "db", "read"))
        assert outcome.decision is Decision.PERMIT
        assert not outcome.disagreement

    def test_corrupted_replica_outvoted(self, vo_env):
        network, _, domain = vo_env
        domain.pap.publish(simple_policy())
        cluster = PdpCluster(domain, replicas=3)
        # Corrupt replica 0: local policy says deny-everything and it never
        # refreshes from the PAP.
        corrupt = cluster.replicas[0]
        corrupt.pap_address = None
        corrupt.add_local_policy(
            Policy(policy_id="evil", rules=(deny_rule("deny-all"),))
        )
        client = QuorumClient("qc", network, cluster.addresses, quorum=3)
        outcome = voted(network, client, RequestContext.simple("alice", "db", "read"))
        assert outcome.decision is Decision.PERMIT
        assert outcome.disagreement

    def test_insufficient_replies_denies(self, vo_env):
        network, _, domain = vo_env
        domain.pap.publish(simple_policy())
        cluster = PdpCluster(domain, replicas=2)
        cluster.replicas[0].crash()
        cluster.replicas[1].crash()
        client = QuorumClient("qc", network, cluster.addresses, quorum=2)
        outcome = voted(network, client, RequestContext.simple("alice", "db", "read"))
        assert outcome.decision is Decision.DENY
        assert outcome.replies == 0

    def test_undecodable_reply_is_no_vote(self, vo_env):
        network, _, domain = vo_env
        domain.pap.publish(simple_policy())
        cluster = PdpCluster(domain, replicas=2)
        junk = Component("pdp.junk", network)
        junk.on(QUERY_ACTION, lambda message: "<junk/>")
        client = QuorumClient("qc", network, ["pdp.junk", *cluster.addresses], quorum=2)
        outcome = voted(network, client, RequestContext.simple("alice", "db", "read"))
        assert outcome.decision is Decision.PERMIT
        assert outcome.replicas_asked == 3 and outcome.replies == 2

    def test_replayed_permit_for_another_query_is_no_vote(self, vo_env):
        network, _, _ = vo_env
        replay = XacmlAuthzDecisionStatement(
            response=ResponseContext.single(Decision.PERMIT),
            in_response_to="xacmlq-captured",
            issuer="pdp.replay",
            issue_instant=0.0,
        ).to_xml()
        replayer = Component("pdp.replay", network)
        replayer.on(QUERY_ACTION, lambda message: replay)
        client = QuorumClient("qc", network, ["pdp.replay"], quorum=1)
        outcome = voted(network, client, RequestContext.simple("eve", "db", "read"))
        assert outcome.decision is Decision.DENY
        assert outcome.replies == 0

    def test_invalid_quorum_rejected(self, vo_env):
        network, _, domain = vo_env
        cluster = PdpCluster(domain, replicas=2)
        with pytest.raises(ValueError):
            QuorumClient("qc", network, cluster.addresses, quorum=3)


class TestDiscovery:
    def test_prober_marks_health(self, vo_env):
        network, _, domain = vo_env
        registry = ServiceRegistry()
        register_pdp(registry, domain.pdp.name, domain.name)
        prober = HealthProber("prober", network, registry, period=0.3)
        prober.start()
        network.run(until=network.now + 1.0)
        assert registry.find(service_type="pdp")
        domain.pdp.crash()
        network.run(until=network.now + 1.0)
        assert registry.find(service_type="pdp") == []

    def test_a_crashed_prober_marks_nobody_unhealthy(self, vo_env):
        """Likewise for the prober: while it is down it marks nothing
        (it used to mark both live PDPs unhealthy within three seconds),
        and after recovery it marks a real crash."""
        network, _, domain = vo_env
        registry = ServiceRegistry()
        pdps = [domain.pdp, domain.create_pdp(suffix="-b")]
        for pdp in pdps:
            register_pdp(registry, pdp.name, domain.name)
        prober = HealthProber("prober", network, registry, period=0.5)
        prober.start()
        network.run(until=network.now + 2.0)
        prober.crash()
        probes = prober.probes_sent
        network.run(until=network.now + 3.0)
        assert len(registry.find(service_type="pdp")) == 2
        assert prober.probes_sent == probes
        prober.recover()
        pdps[0].crash()
        network.run(until=network.now + 2.0)
        assert [d.address for d in registry.find(service_type="pdp")] == [pdps[1].name]

    def test_dispatcher_prefers_local_then_fallback(self, vo_env):
        network, keystore, domain = vo_env
        registry = ServiceRegistry()
        register_pdp(registry, "pdp.remote", "other-domain")
        register_pdp(registry, domain.pdp.name, domain.name)
        network.node("pdp.remote")  # exists but is another domain's
        dispatcher = discovering_dispatcher(
            registry, home_domain=domain.name, fallback_domains=("other-domain",)
        )
        assert dispatcher.replicas == [domain.pdp.name, "pdp.remote"]
        assert dispatcher.select() == domain.pdp.name
        registry.mark_health(domain.pdp.name, False)
        assert dispatcher.select() == "pdp.remote"
        assert dispatcher.routing.passed_over == 1

    def test_dispatcher_none_when_nothing_healthy(self):
        registry = ServiceRegistry()
        register_pdp(registry, "pdp.x", "x")
        dispatcher = discovering_dispatcher(registry, home_domain="x")
        register_pdp(registry, "pdp.late", "x")  # not in the ring
        registry.mark_health("pdp.x", False)
        assert dispatcher.replicas == ["pdp.x"]
        assert dispatcher.select() is None


class TestSequences:
    def test_pull_trace_has_four_steps(self, vo_env):
        network, _, domain = vo_env
        domain.pap.publish(simple_policy())
        resource = domain.expose_resource("db")
        client = ClientAgent("client", network, "alice")
        trace = pull_sequence(client, resource.pep, "db", "read")
        assert trace.step_numbers() == ["I", "II", "III", "IV"]
        assert trace.result.granted
        # Cold path: PDP fetches policies from the PAP (2 messages) plus
        # the decision query/response pair.
        assert trace.messages_used == 4
        # Warm path: policies cached at the PDP, only query + response.
        trace2 = pull_sequence(client, resource.pep, "db", "write")
        assert trace2.messages_used == 2

    def test_push_trace_and_reuse(self, vo_env):
        from repro.capability import (
            CapabilityEnforcer,
            CapabilityVerifier,
            CommunityAuthorizationService,
        )
        from repro.xacml import SUBJECT_ROLE

        network, keystore, domain = vo_env
        identity = domain.component_identity("cas.vo")
        cas = CommunityAuthorizationService(
            "cas.vo", network, domain.name, identity, vo_name="vo"
        )
        cas.set_subject_attribute("alice", SUBJECT_ROLE, ["analyst"])
        cas.add_policy(
            Policy(
                policy_id="community",
                rules=(permit_rule("all-analysts"),),
            )
        )
        resource = domain.expose_resource("db")
        verifier = CapabilityVerifier(domain)
        enforcer = CapabilityEnforcer(resource.pep, verifier)
        client = ClientAgent("client", network, "alice")
        trace, capability = push_sequence(
            client, "cas.vo", enforcer, "db", "read"
        )
        assert trace.step_numbers() == ["I", "II", "III", "IV"]
        assert trace.result.granted
        assert trace.messages_used == 2  # capability request/response
        # Re-use: steps I/II skipped, zero network messages.
        trace2, _ = push_sequence(
            client, "cas.vo", enforcer, "db", "read", reuse_capability=capability
        )
        assert trace2.step_numbers() == ["III", "IV"]
        assert trace2.messages_used == 0
