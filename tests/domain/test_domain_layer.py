"""Tests for domains, VOs, trust, identity and federation."""

import pytest

from repro.domain import (
    AdministrativeDomain,
    CollaborationMode,
    Subject,
    TrustGraph,
    TrustKind,
    VirtualOrganization,
    build_ad_hoc_collaboration,
    build_federation,
)
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import SUBJECT_ROLE


@pytest.fixture
def network():
    return Network(seed=17)


@pytest.fixture
def keystore():
    return KeyStore(seed=17)


class TestTrustGraph:
    def test_trust_is_directed(self):
        graph = TrustGraph()
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert graph.trusts("a", "b", TrustKind.IDENTITY)
        assert not graph.trusts("b", "a", TrustKind.IDENTITY)

    def test_trust_is_per_kind(self):
        graph = TrustGraph()
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert not graph.trusts("a", "b", TrustKind.DECISION)

    def test_self_trust_implicit(self):
        assert TrustGraph().trusts("a", "a", TrustKind.CAPABILITY)

    def test_revoke(self):
        graph = TrustGraph()
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert graph.revoke("a", "b", TrustKind.IDENTITY)
        assert not graph.trusts("a", "b", TrustKind.IDENTITY)
        assert not graph.revoke("a", "b", TrustKind.IDENTITY)

    def test_transitive_reach(self):
        graph = TrustGraph()
        graph.establish("a", "b", TrustKind.IDENTITY)
        graph.establish("b", "c", TrustKind.IDENTITY)
        assert graph.transitive_identity_reach("a") == {"a", "b", "c"}
        assert graph.transitive_identity_reach("c") == {"c"}


class TestAdministrativeDomain:
    def test_standard_layout(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        assert domain.pap is not None
        assert domain.pdp is not None
        assert domain.pip is not None
        assert domain.idp is not None

    def test_subject_attributes_reach_pip(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        domain.new_subject("alice", role=["engineer"])
        from repro.xacml import Category, DataType

        values = domain.pip.store.lookup(
            Category.SUBJECT, SUBJECT_ROLE, "alice", DataType.STRING, 0.0
        )
        assert [v.value for v in values] == ["engineer"]

    def test_foreign_subject_rejected(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore)
        foreign = Subject(subject_id="x", home_domain="other")
        with pytest.raises(ValueError, match="homed"):
            domain.add_subject(foreign)

    def test_component_identity_chains_to_domain_ca(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore)
        identity = domain.component_identity("svc.acme")
        domain.validator.validate(identity.certificate, at=1.0)

    def test_resource_gets_pep(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        resource = domain.expose_resource("db")
        assert resource.pep.dispatcher.replicas == [domain.pdp.name]


class TestVirtualOrganization:
    def test_cross_domain_certificate_validation_under_vo_root(
        self, network, keystore
    ):
        vo = VirtualOrganization("vo", network, keystore, with_root_ca=True)
        a = vo.create_domain("a")
        b = vo.create_domain("b")
        identity_a = a.component_identity("svc.a")
        # b can validate a's component because both chain to the VO root.
        b.validator.validate(identity_a.certificate, at=1.0)

    def test_no_cross_validation_without_vo_root_or_trust(self, network, keystore):
        from repro.wss import CertificateError

        vo = VirtualOrganization("vo", network, keystore, with_root_ca=False)
        a = vo.create_domain("a")
        b = vo.create_domain("b")
        identity_a = a.component_identity("svc.a")
        with pytest.raises(CertificateError):
            b.validator.validate(identity_a.certificate, at=1.0)

    def test_establish_trust_installs_anchor(self, network, keystore):
        vo = VirtualOrganization("vo", network, keystore, with_root_ca=False)
        a = vo.create_domain("a")
        b = vo.create_domain("b")
        vo.establish_trust("b", "a", TrustKind.IDENTITY)
        identity_a = a.component_identity("svc.a")
        b.validator.validate(identity_a.certificate, at=1.0)

    def test_membership_attribute_granted(self, network, keystore):
        vo = VirtualOrganization("vo", network, keystore)
        a = vo.create_domain("a")
        a.standard_layout()
        alice = a.new_subject("alice")
        vo.grant_membership(alice, vo_role="analyst")
        assert alice.attribute("vo") == ["vo:analyst"]

    def test_deploy_vo_policy_reaches_all_paps(self, network, keystore):
        from repro.xacml import Policy, deny_rule

        vo = VirtualOrganization("vo", network, keystore)
        for name in ("a", "b"):
            vo.create_domain(name).standard_layout()
        record = vo.deploy_vo_policy(
            Policy(policy_id="vo-wide", rules=(deny_rule("lockdown"),))
        )
        assert sorted(record.deployed_to) == ["a", "b"]
        assert "vo-wide" in vo.domain("a").pap.repository
        assert "vo-wide" in vo.domain("b").pap.repository

    def test_duplicate_domain_rejected(self, network, keystore):
        vo = VirtualOrganization("vo", network, keystore)
        vo.create_domain("a")
        with pytest.raises(ValueError):
            vo.create_domain("a")


class TestFederationBuilders:
    def test_federated_full_mesh(self, network, keystore):
        vo, agreement = build_federation(
            "fed", ["x", "y", "z"], network, keystore
        )
        assert agreement.mode is CollaborationMode.FEDERATED
        for a in ("x", "y", "z"):
            for b in ("x", "y", "z"):
                assert vo.trust.trusts(a, b, TrustKind.IDENTITY)

    def test_ad_hoc_is_bilateral_only(self, network, keystore):
        vo, agreements = build_ad_hoc_collaboration(
            "adhoc", [("x", "y")], network, keystore
        )
        assert len(agreements) == 1
        assert vo.trust.trusts("x", "y", TrustKind.IDENTITY)
        assert not vo.trust.trusts("x", "z", TrustKind.IDENTITY)

    def test_ad_hoc_creates_all_mentioned_domains(self, network, keystore):
        vo, _ = build_ad_hoc_collaboration(
            "adhoc", [("x", "y"), ("y", "z")], network, keystore
        )
        assert sorted(vo.members_of()) == ["x", "y", "z"]


class TestIdentityProvider:
    def test_issue_and_validate_assertion(self, network, keystore):
        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        domain.new_subject("alice", role=["engineer"])
        signed = domain.idp.issue_assertion("alice")
        from repro.saml import validate_assertion

        assertion = validate_assertion(
            signed, keystore, domain.validator, at=network.now + 1.0
        )
        assert assertion.subject_id == "alice"
        assert assertion.attribute_values(SUBJECT_ROLE) == ["engineer"]

    def test_unknown_subject_faults(self, network, keystore):
        from repro.components import RpcFault

        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        with pytest.raises(RpcFault, match="unknown-subject"):
            domain.idp.issue_assertion("ghost")

    def test_profile_request_over_network(self, network, keystore):
        from repro.components.base import Component
        from repro.domain import assertion_from_payload

        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        domain.new_subject("alice", role=["engineer"])
        relying_party = Component("svc.other", network)
        reply = relying_party.call(domain.idp.name, "idp.profile", "alice")
        signed = assertion_from_payload(reply.payload)
        assert signed.subject_id == "alice"
        assert domain.idp.profile_requests == 1
