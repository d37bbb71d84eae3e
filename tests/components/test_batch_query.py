"""Batch decision queries: wire round-trip, PDP handling, the PEP's queued path."""

import dataclasses

import pytest

from repro.components import (
    ComponentIdentity,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.saml import XacmlAuthzDecisionBatchQuery
from repro.simnet import Network
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import (
    Condition,
    Decision,
    Policy,
    RequestContext,
    apply_,
    combining,
    deny_rule,
    literal,
    permit_rule,
    string,
    subject_resource_action_target,
)

from test_pep_bad_reply import decide_queued


def alice_policy():
    return Policy(
        policy_id="p",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def requests_mixed():
    return [
        RequestContext.simple("alice", "doc", "read"),
        RequestContext.simple("eve", "doc", "read"),
        RequestContext.simple("alice", "doc", "write"),
    ]


class TestWireRoundTrip:
    def test_batch_query_round_trips(self):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            requests_mixed(), issuer="pep", issue_instant=1.5
        )
        parsed = XacmlAuthzDecisionBatchQuery.from_xml(batch.to_xml())
        assert parsed.batch_id == batch.batch_id
        assert parsed.issuer == "pep"
        assert len(parsed.queries) == 3
        assert [q.request.subject_id for q in parsed.queries] == [
            "alice",
            "eve",
            "alice",
        ]
        assert [q.query_id for q in parsed.queries] == [
            q.query_id for q in batch.queries
        ]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            XacmlAuthzDecisionBatchQuery(
                queries=(), issuer="pep", issue_instant=0.0
            )

    def test_count_mismatch_rejected(self):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            requests_mixed()[:2], issuer="pep", issue_instant=0.0
        )
        tampered = batch.to_xml().replace('Count="2"', 'Count="3"')
        with pytest.raises(ValueError, match="declares 3"):
            XacmlAuthzDecisionBatchQuery.from_xml(tampered)


class TestPdpBatchHandling:
    def build(self, pdp_config=None):
        network = Network(seed=41)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(alice_policy())
        pdp = PolicyDecisionPoint(
            "pdp", network, pap_address="pap", config=pdp_config
        )
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=0.0),
        )
        return network, pap, pdp, pep

    def test_batch_matches_sequential_decisions(self):
        network, pap, pdp, pep = self.build()
        batched = decide_queued(pep, requests_mixed())
        sequential = [pep.authorize(r) for r in requests_mixed()]
        assert [b.decision for b in batched] == [s.decision for s in sequential]
        assert [b.decision for b in batched] == [
            Decision.PERMIT,
            Decision.DENY,
            Decision.PERMIT,
        ]

    def test_one_policy_refresh_per_batch(self):
        network, pap, pdp, pep = self.build(
            PdpConfig(policy_cache_ttl=0.0)  # every decision re-fetches...
        )
        decide_queued(pep, requests_mixed())
        # ...but a batch refreshes once for all three.
        assert pdp.policy_fetches == 1
        assert pdp.batch_queries_served == 1
        assert pdp.batched_decisions == 3
        assert pdp.decisions_made == 3

    def test_batch_of_one_degenerates_to_single_behaviour(self):
        network, pap, pdp, pep = self.build()
        [only] = decide_queued(pep, [RequestContext.simple("alice", "doc", "read")])
        assert only.decision is Decision.PERMIT
        assert only.source == "pdp"

    def test_empty_request_is_decided_not_a_batch_fault(self):
        # ``RequestContext()`` travels as ``<Request />``; the PDP must
        # read it back and decide it like any other slot.
        network, pap, pdp, pep = self.build()
        alice, empty, eve = decide_queued(
            pep,
            [
                RequestContext.simple("alice", "doc", "read"),
                RequestContext(),
                RequestContext.simple("eve", "doc", "read"),
            ]
        )
        assert [r.source for r in (alice, empty, eve)] == ["pdp"] * 3
        assert alice.decision is Decision.PERMIT
        assert empty.decision is Decision.DENY  # the policy's catch-all
        assert eve.decision is Decision.DENY
        assert pdp.batched_decisions == 3

    def test_unknown_function_costs_one_slot_not_the_batch(self):
        # A PAP validates what it publishes; the parser and the store do
        # not, so a local policy like this deploys.  Evaluating it used
        # to raise FunctionError out of the PDP's handler and every slot
        # of the envelope went unanswered.
        network = Network(seed=41)
        pdp = PolicyDecisionPoint("pdp", network)
        pdp.add_local_policy(
            dataclasses.replace(
                alice_policy(),
                target=subject_resource_action_target(resource_id="doc"),
            )
        )
        pdp.add_local_policy(
            Policy(
                policy_id="bogus",
                target=subject_resource_action_target(resource_id="vault"),
                rules=(
                    permit_rule(
                        "r",
                        condition=Condition(
                            apply_("urn:bogus:function", literal(string("x")))
                        ),
                    ),
                ),
            )
        )
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=0.0),
        )
        alice, vault, eve = decide_queued(
            pep,
            [
                RequestContext.simple("alice", "doc", "read"),
                RequestContext.simple("mallory", "vault", "read"),
                RequestContext.simple("eve", "doc", "read"),
            ]
        )
        assert [r.source for r in (alice, vault, eve)] == ["pdp"] * 3
        assert alice.decision is Decision.PERMIT
        assert vault.decision is Decision.INDETERMINATE
        assert not vault.granted
        assert eve.decision is Decision.DENY

    def test_duplicate_requests_share_one_wire_slot(self):
        network, pap, pdp, pep = self.build()
        request = RequestContext.simple("alice", "doc", "read")
        results = decide_queued(pep, [request, request, request])
        assert all(r.decision is Decision.PERMIT for r in results)
        assert pdp.decisions_made == 1  # deduplicated before the wire
        assert pep.enforcements == 3  # but every caller was enforced

    def test_unsigned_batch_rejected_when_signatures_required(self):
        network, pap, pdp, pep = self.build(
            PdpConfig(require_signed_queries=True)
        )
        results = decide_queued(pep, requests_mixed())
        assert all(r.decision is Decision.DENY for r in results)
        assert all(r.source == "fail-safe" for r in results)
        assert pdp.rejected_queries == 1

    def test_batch_cache_fill_serves_later_singles(self):
        network = Network(seed=42)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(alice_policy())
        PolicyDecisionPoint("pdp", network, pap_address="pap")
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=60.0),
        )
        decide_queued(pep, requests_mixed())
        followup = pep.authorize(RequestContext.simple("alice", "doc", "read"))
        assert followup.source == "cache"


class TestSecureBatch:
    def build_secure(self):
        network = Network(seed=43)
        keystore = KeyStore(seed=43)
        ca = CertificateAuthority("ca", keystore)

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
        pdp = PolicyDecisionPoint(
            "pdp", network, pap_address="pap", identity=identity("pdp"),
            config=PdpConfig(require_signed_queries=True),
        )
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp", identity=identity("pep"),
            config=PepConfig(decision_cache_ttl=0.0, secure_channel=True),
        )
        return network, pdp, pep

    def test_one_signature_covers_the_whole_batch(self):
        network, pdp, pep = self.build_secure()
        results = decide_queued(pep, requests_mixed())
        assert [r.decision for r in results] == [
            Decision.PERMIT,
            Decision.DENY,
            Decision.PERMIT,
        ]
        assert pdp.rejected_queries == 0
        # One secure envelope each way for three decisions.
        assert network.metrics.sent_by_kind["xacml.request.batch.secure"] == 1
        assert (
            network.metrics.sent_by_kind["xacml.request.batch.secure:response"]
            == 1
        )


class TestServiceTimeModel:
    def test_replies_queue_behind_busy_time(self):
        network = Network(seed=44)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(alice_policy())
        PolicyDecisionPoint(
            "pdp", network, pap_address="pap",
            config=PdpConfig(envelope_overhead=0.5, decision_service_time=0.1),
        )
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=0.0, pdp_timeout=10.0),
        )
        start = network.now
        result = pep.authorize(RequestContext.simple("alice", "doc", "read"))
        assert result.granted
        # At least the 0.6 s of modelled service time elapsed.
        assert network.now - start >= 0.6

    def test_zero_cost_model_keeps_seed_latency(self):
        network = Network(seed=45)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(alice_policy())
        PolicyDecisionPoint("pdp", network, pap_address="pap")
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        start = network.now
        assert pep.authorize_simple("alice", "doc", "read").granted
        assert network.now - start < 0.5  # network delays only
