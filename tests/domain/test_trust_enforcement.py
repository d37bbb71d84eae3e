"""Trust enforcement: the VO trust graph decides what a domain accepts.

A certificate that chains to the VO root proves only that its holder's
domain is a member.  ``AdministrativeDomain.accept`` admits an identity
assertion or a capability signed in another member domain iff the
relying domain trusts that domain for the artefact's kind, and
``CapabilityVerifier`` agrees with it on capabilities.
"""

import pytest

from repro.capability import (
    CapabilityRequest,
    CapabilityScope,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
from repro.components import ComponentIdentity
from repro.domain import (
    AdministrativeDomain,
    IdentityProvider,
    Subject,
    TrustKind,
    build_federation,
)
from repro.revocation import RevocationKind, RevocationRegistry, trust_edge_target
from repro.saml import AssertionError_
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import Policy, permit_rule

KINDS = (TrustKind.IDENTITY, TrustKind.CAPABILITY)

#: What the relying domain "home" holds about the signing domain
#: "partner" for the artefact's kind; only "trusted" admits.
CELLS = (
    "never-trusted",
    "trusted",
    "trusted-for-the-other-kind",
    "trusted-the-other-way",
    "revoked-by-registry-record",
)


def federation(cell, kind):
    network, keystore = Network(seed=31), KeyStore(seed=31)
    vo = build_federation("vo", ["home", "partner"], network, keystore, kinds=())
    other = next(k for k in KINDS if k is not kind)
    if cell == "trusted-for-the-other-kind":
        vo.establish_trust("home", "partner", other)
    elif cell == "trusted-the-other-way":
        vo.establish_trust("partner", "home", kind)
    elif cell != "never-trusted":
        vo.establish_trust("home", "partner", kind)
    if cell == "revoked-by-registry-record":
        # Revocation is recorded at the registry only; a bound graph
        # reads it.
        registry = RevocationRegistry()
        vo.trust.bind_revocation_registry(registry)
        registry.revoke(
            RevocationKind.TRUST_EDGE, trust_edge_target("home", "partner", kind.value)
        )
    return network, vo


def issue(domain, kind, network):
    """An artefact of ``kind`` signed by a component of ``domain``."""
    if kind is TrustKind.IDENTITY:
        domain.new_subject("alice", role=["analyst"])
        return domain.idp.issue_assertion("alice")
    name = f"cas.{domain.name}"
    cas = CommunityAuthorizationService(
        name, network, domain.name, domain.component_identity(name)
    )
    cas.add_policy(Policy(policy_id="all", rules=(permit_rule("all"),)))
    return cas.issue(
        CapabilityRequest("alice", (CapabilityScope("dataset", "read"),))
    )


def accepted(domain, signed, kind, at):
    try:
        domain.accept(signed, kind, at)
    except AssertionError_ as exc:
        assert "does not trust" in str(exc)
        return False
    return True


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("cell", CELLS)
def test_accepted_iff_the_signer_domain_is_trusted_for_the_kind(cell, kind):
    network, vo = federation(cell, kind)
    home = vo.domain("home")
    signed = issue(vo.domain("partner"), kind, network)
    expected = cell == "trusted"
    assert accepted(home, signed, kind, network.now) is expected
    if kind is TrustKind.CAPABILITY:
        outcome = CapabilityVerifier(home).verify(
            signed, "alice", "dataset", "read", at=network.now
        )
        assert outcome.ok is expected


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("cell", CELLS)
def test_own_artefacts_are_accepted_in_every_cell(cell, kind):
    network, vo = federation(cell, kind)
    home = vo.domain("home")
    signed = issue(home, kind, network)
    assert accepted(home, signed, kind, network.now)


def test_a_certificate_issued_by_the_vo_root_proves_no_member_domain():
    network, keystore = Network(seed=32), KeyStore(seed=32)
    vo = build_federation("vo", ["home", "partner"], network, keystore)
    home = vo.domain("home")
    keypair = keystore.generate(label="idp.vo")
    identity = ComponentIdentity(
        name="idp.vo",
        keypair=keypair,
        certificate=vo.root_ca.issue("idp.vo", keypair.public, 0.0, 1e9),
        keystore=keystore,
        validator=home.validator,
    )
    idp = IdentityProvider("idp.vo", network, domain="vo", identity=identity)
    idp.register_subject(Subject(subject_id="alice", home_domain="vo"))
    signed = idp.issue_assertion("alice")
    # The chain is sound: the root anchors it.
    home.validator.validate(signed.signed.certificate, at=network.now)
    assert not accepted(home, signed, TrustKind.IDENTITY, network.now)


def test_a_standalone_domain_accepts_only_its_own_artefacts():
    network, keystore = Network(seed=33), KeyStore(seed=33)
    vo = build_federation("vo", ["partner"], network, keystore)
    loner = AdministrativeDomain("loner", network, keystore).standard_layout()
    own = issue(loner, TrustKind.IDENTITY, network)
    assert accepted(loner, own, TrustKind.IDENTITY, network.now)
    foreign = issue(vo.domain("partner"), TrustKind.IDENTITY, network)
    assert not accepted(loner, foreign, TrustKind.IDENTITY, network.now)
