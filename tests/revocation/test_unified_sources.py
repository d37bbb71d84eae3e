"""The four legacy revocation sites delegate to the unified registry.

CA CRLs, trust edges, administrative delegation and RBAC permissions
each kept private revocation state; bound to a
:class:`RevocationRegistry` they all record through it — one source of
revocation truth — while keeping their public signatures.
"""

from repro.admin.delegation import DelegationRegistry, Scope
from repro.domain.trust import TrustGraph, TrustKind
from repro.models.rbac import RbacModel
from repro.revocation import RevocationKind, RevocationRegistry
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator


class TestCertificateAuthority:
    def test_revoke_records_in_registry(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        registry = RevocationRegistry()
        ca.bind_revocation_registry(registry)
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        ca.revoke(certificate)
        assert ca.is_revoked(certificate)
        assert registry.certificate_revoked(certificate.serial)
        assert certificate.serial in ca.crl()

    def test_validator_sees_registry_revocations(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        registry = RevocationRegistry()
        ca.bind_revocation_registry(registry)
        validator = TrustValidator(keystore, anchors=[ca])
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        assert validator.is_valid(certificate, at=1.0)
        # Revocation issued directly at the registry — not via the CA —
        # still invalidates the chain: one source of truth.
        registry.revoke_certificate(certificate.serial)
        assert not validator.is_valid(certificate, at=1.0)

    def test_existing_revocations_migrate_at_bind(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        ca.revoke(certificate)
        registry = RevocationRegistry()
        ca.bind_revocation_registry(registry)
        assert registry.certificate_revoked(certificate.serial)
        assert ca.is_revoked(certificate)

    def test_unbound_ca_keeps_local_behaviour(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        ca.revoke(certificate)
        assert ca.is_revoked(certificate)
        assert ca.crl() == frozenset({certificate.serial})


class TestTrustGraph:
    def test_revoke_records_edge(self):
        graph = TrustGraph()
        registry = RevocationRegistry()
        graph.bind_revocation_registry(registry)
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert graph.revoke("a", "b", TrustKind.IDENTITY)
        assert registry.trust_edge_revoked("a", "b", "identity")
        assert not graph.trusts("a", "b", TrustKind.IDENTITY)

    def test_revoking_absent_edge_records_nothing(self):
        graph = TrustGraph()
        registry = RevocationRegistry()
        graph.bind_revocation_registry(registry)
        assert not graph.revoke("a", "b", TrustKind.IDENTITY)
        assert registry.epoch == 0


class TestDelegationRegistry:
    def test_withdrawn_grant_recorded(self):
        delegation = DelegationRegistry(roots={"root"})
        registry = RevocationRegistry()
        delegation.bind_revocation_registry(registry)
        scope = Scope(resource_id="doc", action_id="read")
        delegation.grant("root", "deputy", scope, max_depth=1)
        assert delegation.revoke("root", "deputy", scope) == 1
        assert registry.delegation_revoked("root", "deputy", str(scope))
        assert not delegation.reduce("deputy", scope).valid

    def test_no_record_when_nothing_matched(self):
        delegation = DelegationRegistry(roots={"root"})
        registry = RevocationRegistry()
        delegation.bind_revocation_registry(registry)
        assert delegation.revoke("root", "ghost", Scope()) == 0
        assert registry.epoch == 0


class TestRbacModel:
    def test_revoked_permission_recorded(self):
        rbac = RbacModel("rbac")
        registry = RevocationRegistry()
        rbac.bind_revocation_registry(registry)
        rbac.add_role("clerk")
        rbac.grant_permission("clerk", "orders", "read")
        rbac.revoke_permission("clerk", "orders", "read")
        assert registry.entitlement_revoked("rbac", "clerk", "orders", "read")
        assert rbac.role_permissions("clerk") == set()
        # The record keys coherence on the resource, not on the role
        # name (roles are not subject ids in PEP decision-cache keys).
        (record,) = registry.records()
        assert record.resource_id == "orders"
        assert record.subject_id == ""

    def test_revoking_absent_permission_records_nothing(self):
        rbac = RbacModel("rbac")
        registry = RevocationRegistry()
        rbac.bind_revocation_registry(registry)
        rbac.add_role("clerk")
        rbac.revoke_permission("clerk", "orders", "read")
        assert registry.epoch == 0


class TestOneSourceOfTruth:
    def test_all_four_sites_share_one_registry(self):
        keystore = KeyStore(seed=2)
        registry = RevocationRegistry()
        ca = CertificateAuthority("ca", keystore)
        graph = TrustGraph()
        delegation = DelegationRegistry(roots={"root"})
        rbac = RbacModel("rbac")
        for owner in (ca, graph, delegation, rbac):
            owner.bind_revocation_registry(registry)

        keypair = keystore.generate(label="s")
        certificate = ca.issue("s", keypair.public, 0.0, 100.0)
        ca.revoke(certificate)
        graph.establish("a", "b", TrustKind.CAPABILITY)
        graph.revoke("a", "b", TrustKind.CAPABILITY)
        delegation.grant("root", "deputy", Scope(), max_depth=1)
        delegation.revoke("root", "deputy", Scope())
        rbac.add_role("clerk")
        rbac.grant_permission("clerk", "orders", "read")
        rbac.revoke_permission("clerk", "orders", "read")

        kinds = {record.kind for record in registry.records()}
        assert kinds == {
            RevocationKind.CERTIFICATE,
            RevocationKind.TRUST_EDGE,
            RevocationKind.DELEGATION,
            RevocationKind.ENTITLEMENT,
        }
        assert registry.epoch == 4
        assert [r.epoch for r in registry.records()] == [1, 2, 3, 4]
