"""Revocation is recorded in one place: the unified registry.

A CA and the trust graph bound to a :class:`RevocationRegistry` read
their revocation state from it; an unbound one holds no revocations.
A delegation registry withdraws grants itself: a withdrawn grant stops
reducing.
"""

import pytest

from repro.admin.delegation import DelegationRegistry, Scope
from repro.domain.trust import TrustGraph, TrustKind
from repro.revocation import (
    RevocationKind,
    RevocationRegistry,
    certificate_target,
    trust_edge_target,
)
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, CertificateError, TrustValidator


def revoke_certificate(registry, certificate):
    return registry.revoke(
        RevocationKind.CERTIFICATE,
        certificate_target(certificate.serial),
        subject_id=certificate.subject,
    )


def revoke_trust_edge(registry, truster, trusted, kind):
    return registry.revoke(
        RevocationKind.TRUST_EDGE, trust_edge_target(truster, trusted, kind.value)
    )


class TestCertificateAuthority:
    def test_a_bound_ca_reads_the_registry(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        registry = RevocationRegistry()
        ca.bind_revocation_registry(registry)
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        assert not ca.is_revoked(certificate)
        revoke_certificate(registry, certificate)
        assert ca.is_revoked(certificate)
        assert registry.certificate_revoked(certificate.serial)

    def test_validator_sees_registry_revocations(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        registry = RevocationRegistry()
        ca.bind_revocation_registry(registry)
        validator = TrustValidator(keystore, anchors=[ca])
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        validator.validate(certificate, at=1.0)
        # Revocation is recorded at the registry, the one source of
        # truth, and invalidates the chain.
        revoke_certificate(registry, certificate)
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(certificate, at=1.0)

    def test_an_unbound_ca_holds_no_revocations(self):
        keystore = KeyStore(seed=1)
        ca = CertificateAuthority("ca", keystore)
        keypair = keystore.generate(label="server")
        certificate = ca.issue("server", keypair.public, 0.0, 100.0)
        revoke_certificate(RevocationRegistry(), certificate)
        assert not ca.is_revoked(certificate)


class TestTrustGraph:
    def test_a_bound_graph_reads_the_registry(self):
        graph = TrustGraph()
        registry = RevocationRegistry()
        graph.bind_revocation_registry(registry)
        graph.establish("a", "b", TrustKind.IDENTITY)
        assert graph.trusts("a", "b", TrustKind.IDENTITY)
        revoke_trust_edge(registry, "a", "b", TrustKind.IDENTITY)
        assert not graph.trusts("a", "b", TrustKind.IDENTITY)
        # Only that edge: the reverse direction and other kinds hold on.
        graph.establish("b", "a", TrustKind.IDENTITY)
        graph.establish("a", "b", TrustKind.CAPABILITY)
        assert graph.trusts("b", "a", TrustKind.IDENTITY)
        assert graph.trusts("a", "b", TrustKind.CAPABILITY)

    def test_an_unbound_graph_holds_no_revocations(self):
        graph = TrustGraph()
        graph.establish("a", "b", TrustKind.IDENTITY)
        revoke_trust_edge(RevocationRegistry(), "a", "b", TrustKind.IDENTITY)
        assert graph.trusts("a", "b", TrustKind.IDENTITY)


class TestDelegationRegistry:
    def test_a_withdrawn_grant_stops_reducing(self):
        delegation = DelegationRegistry(roots={"root"})
        scope = Scope(resource_id="doc", action_id="read")
        delegation.grant("root", "deputy", scope, max_depth=1)
        assert delegation.reduce("deputy", scope).valid
        assert delegation.revoke("root", "deputy", scope) == 1
        assert not delegation.reduce("deputy", scope).valid

    def test_nothing_matched_withdraws_nothing(self):
        delegation = DelegationRegistry(roots={"root"})
        assert delegation.revoke("root", "ghost", Scope()) == 0


class TestOneSourceOfTruth:
    def test_the_ca_and_the_graph_read_one_registry(self):
        keystore = KeyStore(seed=2)
        registry = RevocationRegistry()
        ca = CertificateAuthority("ca", keystore)
        graph = TrustGraph()
        for owner in (ca, graph):
            owner.bind_revocation_registry(registry)

        keypair = keystore.generate(label="s")
        certificate = ca.issue("s", keypair.public, 0.0, 100.0)
        revoke_certificate(registry, certificate)
        graph.establish("a", "b", TrustKind.CAPABILITY)
        revoke_trust_edge(registry, "a", "b", TrustKind.CAPABILITY)

        kinds = {record.kind for record in registry.records()}
        assert kinds == {RevocationKind.CERTIFICATE, RevocationKind.TRUST_EDGE}
        assert ca.is_revoked(certificate)
        assert not graph.trusts("a", "b", TrustKind.CAPABILITY)
        assert [r.epoch for r in registry.records()] == [1, 2]
