"""Tests for propagation strategies and coherence-agent cache wiring."""

import pytest

from repro.components import (
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.revocation import (
    CoherenceAgent,
    HybridStrategy,
    InvalidationBus,
    OnlineStatusStrategy,
    PullStrategy,
    PushStrategy,
    RevocationAuthority,
    RevocationKind,
    TtlOnlyStrategy,
    subject_access_target,
)
from repro.simnet import Network
from repro.xacml import Policy, combining, permit_rule


def permissive_policy():
    return Policy(
        policy_id="p",
        rules=(permit_rule("everyone"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build_env(strategy_factory, decision_cache_ttl=3600.0, push_window=0.0):
    network = Network(seed=21)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(permissive_policy())
    pdp = PolicyDecisionPoint(
        "pdp", network, pap_address="pap",
        config=PdpConfig(policy_cache_ttl=3600.0),
    )
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp",
        config=PepConfig(decision_cache_ttl=decision_cache_ttl),
    )
    bus = InvalidationBus(network)
    authority = RevocationAuthority(
        "authority", network, bus=bus, push_window=push_window
    )
    agent = CoherenceAgent(
        "coherence", network, "authority", strategy_factory(bus)
    )
    agent.protect_pep(pep)
    agent.protect_pdp(pdp)
    return network, authority, agent, pep, pdp


class TestPushStrategy:
    def test_invalidation_applies_on_delivery(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        assert pep.authorize_simple("alice", "doc", "read").granted
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 1
        result = pep.authorize_simple("alice", "doc", "read")
        assert not result.granted
        assert result.source == "revocation"
        assert pep.revocation_denials == 1

    def test_selective_invalidation_spares_other_subjects(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("bob", "doc", "read")
        assert len(pep.decision_cache) == 2
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert len(pep.decision_cache) == 1
        assert agent.decision_entries_invalidated == 1
        # Bob's cached decision survives and is served from cache.
        assert pep.authorize_simple("bob", "doc", "read").source == "cache"

    def test_lost_push_is_not_retransmitted(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        network.partition("authority", "coherence")
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 0
        # Stale permit: exactly the dependability gap pull closes.
        assert pep.authorize_simple("alice", "doc", "read").granted

    def test_delta_pull_recovers_a_lost_push(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        # First push lost, a later one delivered: the pull cursor must
        # not have advanced past the gap.
        network.partition("authority", "coherence")
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        network.heal("authority", "coherence")
        authority.registry.revoke_subject_access("bob")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 1  # only bob's arrived
        assert agent.fetch_delta() == 1  # alice's record recovered
        assert not pep.authorize_simple("alice", "doc", "read").granted

    def test_forged_push_rejected_when_authority_key_configured(self):
        from repro.components import ComponentIdentity
        from repro.revocation import RevocationRegistry
        from repro.wss import KeyStore
        from repro.wss.pki import CertificateAuthority, TrustValidator

        network = Network(seed=24)
        keystore = KeyStore(seed=24)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="authority")
        identity = ComponentIdentity(
            name="authority",
            keypair=keypair,
            certificate=ca.issue("authority", keypair.public, 0.0, 1e6),
            keystore=keystore,
            validator=TrustValidator(keystore, anchors=[ca]),
        )
        bus = InvalidationBus(network)
        authority = RevocationAuthority(
            "authority", network, identity=identity, bus=bus
        )
        agent = CoherenceAgent(
            "coherence", network, "authority", PushStrategy(bus),
            keystore=keystore, authority_key=keypair.public,
        )
        # A forged (unsigned) record published straight onto the bus.
        forged = RevocationRegistry("mallory").revoke_subject_access("alice")
        bus.publish("mallory", forged)
        network.run(until=network.now + 1.0)
        assert agent.rejected_invalidations == 1
        assert agent.records_applied == 0
        # A genuine signed revocation still applies.
        authority.registry.revoke_subject_access("bob")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 1

    def test_delta_pull_cursor_advances_past_verified_prefix(self):
        from dataclasses import replace

        from repro.components import ComponentIdentity
        from repro.wss import KeyStore
        from repro.wss.pki import CertificateAuthority, TrustValidator

        network = Network(seed=25)
        keystore = KeyStore(seed=25)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="authority")
        identity = ComponentIdentity(
            name="authority",
            keypair=keypair,
            certificate=ca.issue("authority", keypair.public, 0.0, 1e6),
            keystore=keystore,
            validator=TrustValidator(keystore, anchors=[ca]),
        )
        authority = RevocationAuthority("authority", network, identity=identity)
        agent = CoherenceAgent(
            "coherence", network, "authority", TtlOnlyStrategy(),
            keystore=keystore, authority_key=keypair.public,
        )
        good_one = authority.registry.revoke_subject_access("alice")
        corrupt = authority.registry.revoke_subject_access("mallory")
        authority.registry.revoke_subject_access("carol")
        # Corrupt the middle record in place (white-box): its signature
        # no longer matches its TBS bytes.
        index = authority.registry._records.index(corrupt)
        authority.registry._records[index] = replace(corrupt, signature="bogus")
        assert agent.fetch_delta() == 1  # the verified prefix (alice)
        assert agent.known_epoch == good_one.epoch
        assert agent.rejected_invalidations == 1
        # Next poll retries from the cursor: still blocked on the
        # corrupt record, but the prefix is never refetched.
        assert agent.fetch_delta() == 0
        assert agent.known_epoch == good_one.epoch

    def test_malformed_push_payload_rejected(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        from repro.simnet import Message
        from repro.revocation import INVALIDATION_KIND

        network.transmit(
            Message(
                sender="mallory", recipient="coherence",
                kind=INVALIDATION_KIND, payload="<Garbage/>",
            )
        )
        network.run(until=network.now + 1.0)
        assert agent.rejected_invalidations == 1
        assert agent.records_applied == 0


class TestBatchedPush:
    def test_burst_coalesces_into_one_publication(self):
        network, authority, agent, pep, pdp = build_env(
            PushStrategy, push_window=1.0
        )
        bus = authority.bus
        for victim in ("alice", "bob", "carol"):
            authority.registry.revoke_subject_access(victim)
        assert bus.batch_publications == 0  # window still open
        network.run(until=network.now + 2.0)
        assert bus.batch_publications == 1
        assert bus.records_batched == 3
        assert bus.publications == 0  # nothing went out one-by-one
        assert agent.records_applied == 3
        for victim in ("alice", "bob", "carol"):
            assert not pep.authorize_simple(victim, "doc", "read").granted
        assert pep.authorize_simple("dave", "doc", "read").granted

    def test_windows_close_independently(self):
        network, authority, agent, pep, pdp = build_env(
            PushStrategy, push_window=1.0
        )
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 2.0)
        authority.registry.revoke_subject_access("bob")
        network.run(until=network.now + 2.0)
        assert authority.bus.batch_publications == 2
        assert authority.push_flushes == 2
        assert agent.records_applied == 2

    def test_forged_record_in_batch_rejected_without_poisoning_siblings(self):
        from repro.components import ComponentIdentity
        from repro.revocation import RevocationRegistry
        from repro.wss import KeyStore
        from repro.wss.pki import CertificateAuthority, TrustValidator

        network = Network(seed=27)
        keystore = KeyStore(seed=27)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="authority")
        identity = ComponentIdentity(
            name="authority",
            keypair=keypair,
            certificate=ca.issue("authority", keypair.public, 0.0, 1e6),
            keystore=keystore,
            validator=TrustValidator(keystore, anchors=[ca]),
        )
        bus = InvalidationBus(network)
        authority = RevocationAuthority(
            "authority", network, identity=identity, bus=bus, push_window=1.0
        )
        agent = CoherenceAgent(
            "coherence", network, "authority", PushStrategy(bus),
            keystore=keystore, authority_key=keypair.public,
        )
        genuine = authority.registry.revoke_subject_access("alice")
        forged = RevocationRegistry("mallory").revoke_subject_access("bob")
        bus.publish_batch("mallory", [genuine, forged])
        network.run(until=network.now + 0.5)
        assert agent.records_applied == 1  # the signed record
        assert agent.rejected_invalidations == 1  # the forged one
        assert agent.is_revoked_locally(
            RevocationKind.ENTITLEMENT, subject_access_target("alice")
        )
        assert not agent.is_revoked_locally(
            RevocationKind.ENTITLEMENT, subject_access_target("bob")
        )

    def test_malformed_batch_payload_rejected(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        from repro.revocation import BATCH_INVALIDATION_KIND
        from repro.simnet import Message

        network.transmit(
            Message(
                sender="mallory", recipient="coherence",
                kind=BATCH_INVALIDATION_KIND, payload="<Garbage/>",
            )
        )
        network.run(until=network.now + 1.0)
        assert agent.rejected_invalidations == 1
        assert agent.records_applied == 0


class TestHybridStrategy:
    def test_push_delivers_immediately(self):
        network, authority, agent, pep, pdp = build_env(
            lambda bus: HybridStrategy(bus, pull_interval=60.0)
        )
        assert pep.authorize_simple("alice", "doc", "read").granted
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 1  # via push, long before any poll
        assert not pep.authorize_simple("alice", "doc", "read").granted

    def test_lost_push_recovered_by_slow_pull(self):
        """The gap TestPushStrategy.test_lost_push_is_not_retransmitted
        documents: hybrid's pull safety net closes it."""
        network, authority, agent, pep, pdp = build_env(
            lambda bus: HybridStrategy(bus, pull_interval=10.0)
        )
        strategy = agent.strategy
        network.partition("authority", "coherence")
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 0  # push lost, like pure push
        assert pep.authorize_simple("alice", "doc", "read").granted
        network.heal("authority", "coherence")
        network.run(until=network.now + 11.0)  # past one pull interval
        assert strategy.polls >= 1
        assert agent.records_applied == 1
        assert not pep.authorize_simple("alice", "doc", "read").granted

    def test_pull_survives_authority_outage(self):
        network, authority, agent, pep, pdp = build_env(
            lambda bus: HybridStrategy(bus, pull_interval=5.0)
        )
        authority.crash()
        network.run(until=network.now + 11.0)
        assert agent.strategy.failed_polls >= 1
        authority.recover()
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 1  # push resumed on recovery

    def test_detach_stops_both_halves(self):
        network, authority, agent, pep, pdp = build_env(
            lambda bus: HybridStrategy(bus, pull_interval=5.0)
        )
        strategy = agent.strategy
        strategy.detach(agent)
        polls_before = strategy.polls
        network.run(until=network.now + 20.0)
        assert strategy.polls == polls_before
        assert authority.bus.subscriber_count() == 0


class TestPullStrategy:
    def test_poll_applies_delta(self):
        network, authority, agent, pep, pdp = build_env(
            lambda bus: PullStrategy(interval=5.0)
        )
        assert pep.authorize_simple("alice", "doc", "read").granted
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 4.0)
        assert agent.records_applied == 0  # before the first poll
        network.run(until=network.now + 2.0)
        assert agent.records_applied == 1
        assert not pep.authorize_simple("alice", "doc", "read").granted

    def test_poll_survives_authority_outage(self):
        strategy = PullStrategy(interval=5.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        authority.crash()
        network.run(until=network.now + 11.0)
        assert strategy.failed_polls >= 1
        authority.recover()
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 6.0)
        assert agent.records_applied == 1

    def test_detach_stops_polling(self):
        strategy = PullStrategy(interval=5.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        strategy.detach(agent)
        network.run(until=network.now + 20.0)
        assert strategy.polls == 0

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            PullStrategy(interval=0.0)

    def test_one_instance_cannot_serve_two_agents(self):
        strategy = PullStrategy(interval=5.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        with pytest.raises(ValueError, match="already attached"):
            CoherenceAgent("coherence-2", network, "authority", strategy)

    def test_malformed_crl_reply_counts_as_failed_poll(self):
        from repro.components import Component
        from repro.revocation import CRL_ACTION

        network = Network(seed=26)
        rogue = Component("authority", network)
        rogue.on(CRL_ACTION, lambda message: "<NotACrl/>")
        strategy = PullStrategy(interval=2.0)
        CoherenceAgent("coherence", network, "authority", strategy)
        network.run(until=network.now + 5.0)
        assert strategy.polls >= 2
        assert strategy.failed_polls == strategy.polls


class TestOnlineStatusStrategy:
    def test_checks_are_fresh_per_access(self):
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        assert pep.authorize_simple("alice", "doc", "read").granted
        authority.registry.revoke_subject_access("alice")
        # No propagation delay at all: the very next check sees it.
        assert not pep.authorize_simple("alice", "doc", "read").granted
        assert strategy.status_checks == 2

    def test_response_cache_bounds_queries(self):
        strategy = OnlineStatusStrategy(cache_ttl=60.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("alice", "doc", "read")
        assert strategy.status_checks == 1

    def test_unreachable_authority_fails_safe(self):
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        authority.crash()
        result = pep.authorize_simple("alice", "doc", "read")
        assert not result.granted
        assert strategy.failed_checks == 1

    def test_fail_open_serves_despite_outage(self):
        strategy = OnlineStatusStrategy(fail_open=True)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        authority.crash()
        # The guard lets the request through to the (healthy) PDP.
        result = pep.authorize_simple("alice", "doc", "read")
        assert result.granted
        assert result.source == "pdp"
        assert strategy.failed_checks == 1


class TestTtlOnlyBaseline:
    def test_never_learns_but_ttl_expires_the_lie(self):
        network, authority, agent, pep, pdp = build_env(
            lambda bus: TtlOnlyStrategy(), decision_cache_ttl=10.0
        )
        assert pep.authorize_simple("alice", "doc", "read").granted
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert agent.records_applied == 0
        # Stale permit until the TTL runs out...
        assert pep.authorize_simple("alice", "doc", "read").source == "cache"
        network.run(until=network.now + 11.0)
        # ...then the PDP is asked again (policy here still permits, so
        # enforcement converges only through authoritative state; the
        # guard itself stays silent).
        assert pep.authorize_simple("alice", "doc", "read").source == "pdp"


class TestTransitiveBlastRadius:
    def test_delegation_revocation_flushes_whole_decision_cache(self):
        # A removed delegation kills chains implicitly (reduction), so
        # no per-subject key covers the blast radius: every cached
        # decision must go, not just the named delegate's.
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        pep.authorize_simple("delegate-b", "doc", "read")
        pep.authorize_simple("downstream-c", "doc", "read")
        assert len(pep.decision_cache) == 2
        authority.registry.revoke_delegation("root", "delegate-b", "*@*")
        network.run(until=network.now + 1.0)
        assert len(pep.decision_cache) == 0


class TestPdpPolicyCacheCoherence:
    def test_policy_level_revocation_invalidates_pdp_cache(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        pep.authorize_simple("alice", "doc", "read")
        fetches_before = pdp.policy_fetches
        authority.revoke(
            RevocationKind.DELEGATION, "root->deputy#*@*"
        )
        network.run(until=network.now + 1.0)
        pep.decision_cache.invalidate_all()
        pep.authorize_simple("alice", "doc", "read")
        # The PDP had to re-probe/fetch despite its long policy TTL.
        assert pdp.revision_probes + pdp.policy_fetches > fetches_before


class TestCapabilityCoherence:
    def test_revoked_capability_is_rejected_by_verifier(self):
        from repro.capability import (
            CapabilityEnforcer,
            CapabilityVerifier,
            CommunityAuthorizationService,
        )
        from repro.domain import TrustKind, build_federation
        from repro.wss import KeyStore
        from repro.xacml import SUBJECT_ROLE

        network = Network(seed=22)
        keystore = KeyStore(seed=22)
        vo, _ = build_federation(
            "vo", ["host"], network, keystore, kinds=(TrustKind.CAPABILITY,)
        )
        host = vo.domain("host")
        cas = CommunityAuthorizationService(
            "cas.vo", network, "host",
            host.component_identity("cas.vo"), vo_name="vo",
        )
        cas.add_policy(permissive_policy())
        cas.set_subject_attribute("ana", SUBJECT_ROLE, ["analyst"])
        resource = host.expose_resource("dataset")
        verifier = CapabilityVerifier(keystore, host.validator)
        enforcer = CapabilityEnforcer(resource.pep, verifier)

        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority", network, bus=bus)
        agent = CoherenceAgent(
            "coherence", network, "authority", PushStrategy(bus)
        )
        agent.protect_verifier(verifier)

        from repro.capability.cas import CapabilityRequest
        from repro.capability.tokens import CapabilityScope

        capability = cas.issue(
            CapabilityRequest("ana", (CapabilityScope("dataset", "read"),))
        )
        assert enforcer.authorize(capability, "ana", "dataset", "read").granted
        authority.registry.revoke_capability(
            capability.assertion.assertion_id, subject_id="ana"
        )
        network.run(until=network.now + 1.0)
        result = enforcer.authorize(capability, "ana", "dataset", "read")
        assert not result.granted
        assert "revoked" in result.detail
        assert verifier.revocation_rejections == 1

    def test_subject_wide_capability_kill(self):
        from repro.capability import CapabilityVerifier
        from repro.domain import build_federation
        from repro.wss import KeyStore
        from repro.saml.assertions import Assertion, sign_assertion

        network = Network(seed=23)
        keystore = KeyStore(seed=23)
        vo, _ = build_federation("vo", ["host"], network, keystore)
        host = vo.domain("host")
        identity = host.component_identity("issuer")
        assertion = Assertion(
            issuer="issuer", subject_id="mallory", issue_instant=0.0,
            not_before=0.0, not_on_or_after=10_000.0,
        )
        signed = sign_assertion(
            assertion, identity.keypair, identity.certificate
        )
        verifier = CapabilityVerifier(keystore, host.validator)
        authority = RevocationAuthority("authority", network)
        agent = CoherenceAgent(
            "coherence", network, "authority", OnlineStatusStrategy()
        )
        agent.protect_verifier(verifier)
        authority.registry.revoke_subject_capabilities("mallory")
        outcome = verifier.verify(signed, "mallory", "r", "read", at=1.0)
        assert not outcome.ok
        assert "capabilities" in outcome.reason


class TestGuardScope:
    def test_second_agent_cannot_silently_replace_a_guard(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        other = CoherenceAgent(
            "coherence-2", network, "authority", TtlOnlyStrategy()
        )
        with pytest.raises(ValueError, match="already has a revocation guard"):
            other.protect_pep(pep)
        other.protect_pep(pep, install_guard=False)  # cache-only is fine

    def test_guard_only_blocks_revoked_subject(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert not pep.authorize_simple("alice", "doc", "read").granted
        assert pep.authorize_simple("bob", "doc", "read").granted
        assert agent.is_revoked(
            RevocationKind.ENTITLEMENT, subject_access_target("alice")
        )
