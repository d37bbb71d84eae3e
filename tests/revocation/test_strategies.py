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
from repro.xacml import Policy, RequestContext, combining, permit_rule


def permissive_policy():
    return Policy(
        policy_id="p",
        rules=(permit_rule("everyone"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def identity_for(name, keystore, ca):
    """A component identity under ``ca``: what a signature-checking
    coherence agent reads its key store from."""
    from repro.components import ComponentIdentity
    from repro.wss.pki import TrustValidator

    keypair = keystore.generate(label=name)
    return ComponentIdentity(
        name=name,
        keypair=keypair,
        certificate=ca.issue(name, keypair.public, 0.0, 1e6),
        keystore=keystore,
        validator=TrustValidator(keystore, anchors=[ca]),
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


def pulled(network, agent):
    """Drive one delta pull to its applied count."""
    counts = []
    agent.fetch_delta(counts.append, counts.append)
    network.loop.run_until(counts.__len__, network.now + 10.0)
    (count,) = counts
    return count


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
        assert pulled(network, agent) == 1  # alice's record recovered
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
            identity=identity_for("coherence", keystore, ca),
            authority_key=keypair.public,
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
            identity=identity_for("coherence", keystore, ca),
            authority_key=keypair.public,
        )
        good_one = authority.registry.revoke_subject_access("alice")
        corrupt = authority.registry.revoke_subject_access("mallory")
        authority.registry.revoke_subject_access("carol")
        # Corrupt the middle record in place (white-box): its signature
        # no longer matches its TBS bytes.
        index = authority.registry._records.index(corrupt)
        authority.registry._records[index] = replace(corrupt, signature="bogus")
        assert pulled(network, agent) == 1  # the verified prefix (alice)
        assert agent.known_epoch == good_one.epoch
        assert agent.rejected_invalidations == 1
        # Next poll retries from the cursor: still blocked on the
        # corrupt record, but the prefix is never refetched.
        assert pulled(network, agent) == 0
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
            identity=identity_for("coherence", keystore, ca),
            authority_key=keypair.public,
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

    def test_polls_resume_after_a_crash_with_a_pull_on_the_wire(self):
        """The crash drops the pull in flight; the poll timer is re-armed,
        so polling resumes within an interval of the recovery."""
        strategy = PullStrategy(interval=5.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        network.loop.run_until(lambda: strategy.polls == 1, network.now + 10.0)
        agent.crash()  # the CRL request is on the wire
        network.run(until=network.now + 3.0)
        agent.recover()
        polls = strategy.polls
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 5.0)
        assert strategy.polls > polls
        assert agent.records_applied == 1

    def test_a_poll_due_while_down_counts_nothing_and_reschedules(self):
        strategy = PullStrategy(interval=5.0)
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        agent.crash()
        network.run(until=network.now + 12.0)  # two polls due
        assert (strategy.polls, strategy.failed_polls) == (0, 0)
        agent.recover()
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 5.0)
        assert strategy.polls == 1
        assert agent.records_applied == 1

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

    def test_every_check_queries_the_authority(self):
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("alice", "doc", "read")
        assert strategy.status_checks == 2

    def test_unreachable_authority_fails_safe(self):
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        authority.crash()
        result = pep.authorize_simple("alice", "doc", "read")
        assert not result.granted
        assert strategy.failed_checks == 1

    def test_unreachable_authority_fails_safe_on_the_queued_path(self):
        """The check guards ``submit`` as it guards ``authorize``: a
        cached permit is not served while the authority is down."""
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        pep.enable_batching(max_batch=4, max_delay=0.001)
        results = []
        pep.submit(RequestContext.simple("alice", "doc", "read"), results.append)
        network.run(until=network.now + 1.0)
        assert [result.granted for result in results] == [True]
        authority.crash()
        assert not pep.submit(RequestContext.simple("alice", "doc", "read"), results.append)
        network.run(until=network.now + 3.0)  # past the status check's deadline
        assert not results[1].granted
        assert results[1].source == "revocation"
        assert strategy.failed_checks == 1
        assert pdp.decisions_made == 1

    def test_an_agent_crashing_mid_check_fails_the_check_safe(self):
        """The PEP waiting on a status check is up when the agent
        crashes with the check on the wire: the check fails at once,
        ``authorize`` denies, and checks resume after ``recover()``."""
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        crashed_at = network.now + 0.0001  # the status request is on the wire
        network.loop.schedule_at(crashed_at, agent.crash)
        result = pep.authorize_simple("alice", "doc", "read")
        assert (result.granted, result.source) == (False, "revocation")
        assert network.now == crashed_at
        assert (strategy.status_checks, strategy.failed_checks) == (1, 1)
        agent.recover()
        assert pep.authorize_simple("alice", "doc", "read").granted
        assert strategy.failed_checks == 1

    def test_an_agent_crashing_mid_check_fails_the_queued_path_safe(self):
        strategy = OnlineStatusStrategy()
        network, authority, agent, pep, pdp = build_env(lambda bus: strategy)
        pep.enable_batching(max_batch=4, max_delay=0.001)
        results = []
        assert not pep.submit(RequestContext.simple("alice", "doc", "read"), results.append)
        network.loop.schedule(0.0001, agent.crash)
        network.run(until=network.now + 0.01)
        assert [(result.granted, result.source) for result in results] == [
            (False, "revocation")
        ]
        assert strategy.failed_checks == 1
        assert pdp.decisions_made == 0


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
        authority.registry.revoke(
            RevocationKind.DELEGATION, "root->delegate-b#*@*", subject_id="delegate-b"
        )
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


class TestGuardScope:
    def test_second_agent_cannot_silently_replace_a_guard(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        other = CoherenceAgent(
            "coherence-2", network, "authority", TtlOnlyStrategy()
        )
        with pytest.raises(ValueError, match="already has a revocation guard"):
            other.protect_pep(pep)

    def test_guard_only_blocks_revoked_subject(self):
        network, authority, agent, pep, pdp = build_env(PushStrategy)
        authority.registry.revoke_subject_access("alice")
        network.run(until=network.now + 1.0)
        assert not pep.authorize_simple("alice", "doc", "read").granted
        assert pep.authorize_simple("bob", "doc", "read").granted
        assert agent.is_revoked_locally(
            RevocationKind.ENTITLEMENT, subject_access_target("alice")
        )
