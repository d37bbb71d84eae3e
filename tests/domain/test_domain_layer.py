"""Tests for domains, VOs, trust, identity and federation."""

import pytest

from repro.domain import (
    AdministrativeDomain,
    Subject,
    TrustGraph,
    TrustKind,
    VirtualOrganization,
    build_federation,
)
from repro.revocation import RevocationKind, RevocationRegistry, trust_edge_target
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

    def test_revoke(self):
        graph = TrustGraph()
        registry = RevocationRegistry()
        graph.bind_revocation_registry(registry)
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert graph.trusts("a", "b", TrustKind.IDENTITY)
        assert not graph.trusts("b", "a", TrustKind.IDENTITY)  # directed
        assert not graph.trusts("a", "b", TrustKind.DECISION)  # per kind
        registry.revoke(RevocationKind.TRUST_EDGE, trust_edge_target("a", "b", "identity"))
        assert not graph.trusts("a", "b", TrustKind.IDENTITY)


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
        vo = VirtualOrganization("vo", network, keystore)
        a = vo.create_domain("a")
        b = vo.create_domain("b")
        identity_a = a.component_identity("svc.a")
        # b can validate a's component because both chain to the VO root.
        b.validator.validate(identity_a.certificate, at=1.0)

    def test_membership_attribute_granted(self, network, keystore):
        vo = VirtualOrganization("vo", network, keystore)
        a = vo.create_domain("a")
        a.standard_layout()
        alice = a.new_subject("alice")
        vo.grant_membership(alice, vo_role="analyst")
        assert alice.attribute("vo") == ["vo:analyst"]

    def test_duplicate_domain_rejected(self, network, keystore):
        vo = VirtualOrganization("vo", network, keystore)
        vo.create_domain("a")
        with pytest.raises(ValueError):
            vo.create_domain("a")


class TestFederationBuilders:
    def test_federated_full_mesh(self, network, keystore):
        vo = build_federation("fed", ["x", "y", "z"], network, keystore)
        assert list(vo.domains) == ["x", "y", "z"]
        for a in ("x", "y", "z"):
            for b in ("x", "y", "z"):
                if a != b:
                    for kind in TrustKind:
                        assert vo.trust.trusts(a, b, kind) == (
                            kind is not TrustKind.DECISION
                        )


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

        domain = AdministrativeDomain("acme", network, keystore).standard_layout()
        domain.new_subject("alice", role=["engineer"])
        relying_party = Component("svc.other", network)
        reply = relying_party.call(domain.idp.name, "idp.profile", "alice")
        signed = reply.payload.signed_assertion
        assert signed.subject_id == "alice"
        assert domain.idp.profile_requests == 1
