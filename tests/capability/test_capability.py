"""Tests for the capability (push-model) system: CAS."""

import pytest

from repro.capability import (
    CapabilityEnforcer,
    CapabilityRequest,
    CapabilityScope,
    CapabilityVerifier,
    CommunityAuthorizationService,
    capability_from_payload,
)
from repro.components import PolicyEnforcementPoint, RpcFault
from repro.domain import AdministrativeDomain
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Category,
    PdpEngine,
    Policy,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)


@pytest.fixture
def setup():
    network = Network(seed=29)
    keystore = KeyStore(seed=29)
    domain = AdministrativeDomain("site", network, keystore)
    identity = domain.component_identity("cas.vo")
    cas = CommunityAuthorizationService(
        "cas.vo", network, "site", identity, vo_name="vo"
    )
    cas.set_subject_attribute("alice", SUBJECT_ROLE, ["analyst"])
    cas.add_policy(
        Policy(
            policy_id="community",
            rules=(
                permit_rule(
                    "analysts-read",
                    target=subject_resource_action_target(action_id="read"),
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string("analyst")
                    ),
                ),
                deny_rule("refuse"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )
    pep = PolicyEnforcementPoint("pep.data", network, domain="site")
    verifier = CapabilityVerifier(
        keystore, domain.validator, accepted_issuers={"cas.vo"}
    )
    enforcer = CapabilityEnforcer(pep, verifier)
    return network, keystore, domain, cas, pep, verifier, enforcer


class TestScopes:
    def test_encode_decode(self):
        scope = CapabilityScope("dataset", "read")
        assert CapabilityScope.decode(scope.encode()) == scope

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            CapabilityScope.decode("no-separator")

    def test_request_roundtrip(self):
        request = CapabilityRequest(
            subject_id="alice",
            scopes=(CapabilityScope("a", "read"), CapabilityScope("b", "write")),
            audience="site-b",
        )
        reparsed = CapabilityRequest.from_xml(request.to_xml())
        assert reparsed == request


class TestCas:
    def test_issue_permitted_scope(self, setup):
        _, _, _, cas, _, _, _ = setup
        capability = cas.issue(
            CapabilityRequest(
                subject_id="alice", scopes=(CapabilityScope("dataset", "read"),)
            )
        )
        assert capability.assertion.decision_for("dataset", "read") == "Permit"

    def test_partial_grant(self, setup):
        _, _, _, cas, _, _, _ = setup
        capability = cas.issue(
            CapabilityRequest(
                subject_id="alice",
                scopes=(
                    CapabilityScope("dataset", "read"),
                    CapabilityScope("dataset", "write"),
                ),
            )
        )
        assert capability.assertion.decision_for("dataset", "read") == "Permit"
        assert capability.assertion.decision_for("dataset", "write") is None

    def test_refuse_all_denied(self, setup):
        _, _, _, cas, _, _, _ = setup
        with pytest.raises(RpcFault, match="refused"):
            cas.issue(
                CapabilityRequest(
                    subject_id="alice",
                    scopes=(CapabilityScope("dataset", "write"),),
                )
            )
        assert cas.requests_refused == 1

    def test_unknown_subject_refused(self, setup):
        _, _, _, cas, _, _, _ = setup
        with pytest.raises(RpcFault):
            cas.issue(
                CapabilityRequest(
                    subject_id="nobody", scopes=(CapabilityScope("d", "read"),)
                )
            )

    def test_wire_interface(self, setup):
        network, _, _, cas, _, _, _ = setup
        from repro.components.base import Component

        client = Component("client", network)
        request = CapabilityRequest(
            subject_id="alice", scopes=(CapabilityScope("dataset", "read"),)
        )
        reply = client.call("cas.vo", "cap.request", request.to_xml())
        capability = capability_from_payload(reply.payload)
        assert capability.subject_id == "alice"


class TestVerifierAndEnforcer:
    def issue(self, cas, audience=None):
        return cas.issue(
            CapabilityRequest(
                subject_id="alice",
                scopes=(CapabilityScope("dataset", "read"),),
                audience=audience,
            )
        )

    def test_valid_capability_grants(self, setup):
        network, _, _, cas, pep, _, enforcer = setup
        capability = self.issue(cas)
        result = enforcer.authorize(capability, "alice", "dataset", "read")
        assert result.granted
        assert result.source == "capability"
        assert pep.grants == 1

    def test_out_of_scope_denied(self, setup):
        _, _, _, cas, _, _, enforcer = setup
        capability = self.issue(cas)
        result = enforcer.authorize(capability, "alice", "dataset", "write")
        assert not result.granted

    def test_stolen_capability_denied(self, setup):
        _, _, _, cas, _, _, enforcer = setup
        capability = self.issue(cas)
        result = enforcer.authorize(capability, "mallory", "dataset", "read")
        assert not result.granted
        assert "does not match caller" in result.detail

    def test_expired_capability_denied(self, setup):
        network, _, _, cas, _, _, enforcer = setup
        capability = self.issue(cas)
        network.clock.advance_to(network.now + cas.capability_lifetime + 1.0)
        result = enforcer.authorize(capability, "alice", "dataset", "read")
        assert not result.granted

    def test_issuer_allow_list(self, setup):
        network, keystore, domain, cas, pep, _, _ = setup
        strict = CapabilityVerifier(
            keystore, domain.validator, accepted_issuers={"some-other-cas"}
        )
        enforcer = CapabilityEnforcer(pep, strict)
        capability = self.issue(cas)
        result = enforcer.authorize(capability, "alice", "dataset", "read")
        assert not result.granted
        assert "not accepted" in result.detail

    def test_audience_restriction(self, setup):
        network, keystore, domain, cas, pep, _, _ = setup
        verifier = CapabilityVerifier(
            keystore, domain.validator, audience="other-site"
        )
        enforcer = CapabilityEnforcer(pep, verifier)
        capability = self.issue(cas, audience="this-site")
        result = enforcer.authorize(capability, "alice", "dataset", "read")
        assert not result.granted

    def test_local_policy_vetoes_capability(self, setup):
        """The paper: the resource provider makes the final decision."""
        _, _, _, cas, pep, verifier, _ = setup
        local_engine = PdpEngine()
        local_engine.add_policy(
            Policy(
                policy_id="local-blacklist",
                rules=(
                    deny_rule(
                        "no-alice",
                        subject_resource_action_target(subject_id="alice"),
                    ),
                ),
            )
        )
        enforcer = CapabilityEnforcer(pep, verifier, local_engine=local_engine)
        capability = self.issue(cas)
        result = enforcer.authorize(capability, "alice", "dataset", "read")
        assert not result.granted
        assert "vetoed" in result.detail

