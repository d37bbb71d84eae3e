"""SAML 2.0-style assertions.

The paper uses SAML as the encoding for capabilities ("capabilities are
usually encoded as SAML assertions", Section 2.2) and for exchanging
authorisation data between components (Section 2.3).  An
:class:`Assertion` carries statements about a subject, bounded by a
validity window and an optional audience restriction, and is signed by
its issuer so relying parties can verify provenance through the PKI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..wss.keys import KeyPair, KeyStore
from ..wss.pki import Certificate, CertificateError, TrustValidator
from ..wss.xmldsig import SignatureError, SignedDocument, sign_document, verify_document


class AssertionError_(Exception):
    """Raised when an assertion fails validation.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


@dataclass(frozen=True)
class AttributeStatement:
    """Attribute name/value pairs asserted about the subject."""

    attributes: tuple[tuple[str, str], ...]

    def to_xml(self) -> str:
        inner = "".join(
            f'<saml:Attribute Name="{name}">'
            f"<saml:AttributeValue>{value}</saml:AttributeValue></saml:Attribute>"
            for name, value in self.attributes
        )
        return f"<saml:AttributeStatement>{inner}</saml:AttributeStatement>"

    def values_for(self, name: str) -> list[str]:
        return [value for key, value in self.attributes if key == name]


@dataclass(frozen=True)
class AuthnStatement:
    """Record of how and when the subject authenticated."""

    authn_instant: float
    method: str = "urn:oasis:names:tc:SAML:2.0:ac:classes:X509"

    def to_xml(self) -> str:
        return (
            f'<saml:AuthnStatement AuthnInstant="{self.authn_instant}" '
            f'Method="{self.method}"/>'
        )


@dataclass(frozen=True)
class AuthzDecisionStatement:
    """A decision statement: subject may/may not perform action on resource."""

    resource: str
    action: str
    decision: str  # "Permit" | "Deny" | "Indeterminate"

    def to_xml(self) -> str:
        return (
            f'<saml:AuthzDecisionStatement Resource="{self.resource}" '
            f'Decision="{self.decision}">'
            f"<saml:Action>{self.action}</saml:Action>"
            f"</saml:AuthzDecisionStatement>"
        )


Statement = Union[AttributeStatement, AuthnStatement, AuthzDecisionStatement]


@dataclass(frozen=True)
class Assertion:
    """An unsigned SAML assertion."""

    issuer: str
    subject_id: str
    issue_instant: float
    not_before: float
    not_on_or_after: float
    statements: tuple[Statement, ...] = ()
    audience: Optional[str] = None
    #: Minted by the issuer's world (``network.mint("saml")``).
    assertion_id: str = "saml-0"

    def to_xml(self) -> str:
        conditions = (
            f'<saml:Conditions NotBefore="{self.not_before}" '
            f'NotOnOrAfter="{self.not_on_or_after}">'
        )
        if self.audience is not None:
            conditions += (
                f"<saml:AudienceRestriction><saml:Audience>{self.audience}"
                f"</saml:Audience></saml:AudienceRestriction>"
            )
        conditions += "</saml:Conditions>"
        statements_xml = "".join(statement.to_xml() for statement in self.statements)
        return (
            f'<saml:Assertion xmlns:saml="urn:oasis:names:tc:SAML:2.0:assertion" '
            f'ID="{self.assertion_id}" IssueInstant="{self.issue_instant}">'
            f"<saml:Issuer>{self.issuer}</saml:Issuer>"
            f"<saml:Subject><saml:NameID>{self.subject_id}</saml:NameID>"
            f"</saml:Subject>{conditions}{statements_xml}</saml:Assertion>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    def attribute_values(self, name: str) -> list[str]:
        out: list[str] = []
        for statement in self.statements:
            if isinstance(statement, AttributeStatement):
                out.extend(statement.values_for(name))
        return out

    def decision_for(self, resource: str, action: str) -> Optional[str]:
        for statement in self.statements:
            if (
                isinstance(statement, AuthzDecisionStatement)
                and statement.resource == resource
                and statement.action == action
            ):
                return statement.decision
        return None


@dataclass(frozen=True)
class SignedAssertion:
    """An assertion plus its issuer's signature over the XML form."""

    assertion: Assertion
    signed: SignedDocument

    def to_xml(self) -> str:
        return self.signed.to_xml()

    @property
    def wire_size(self) -> int:
        return self.signed.wire_size

    @property
    def issuer(self) -> str:
        return self.assertion.issuer

    @property
    def subject_id(self) -> str:
        return self.assertion.subject_id


def sign_assertion(
    assertion: Assertion, keypair: KeyPair, certificate: Certificate
) -> SignedAssertion:
    """Sign an assertion with the issuer's key."""
    if certificate.subject != assertion.issuer:
        raise ValueError(
            f"certificate subject {certificate.subject!r} does not match "
            f"assertion issuer {assertion.issuer!r}"
        )
    return SignedAssertion(
        assertion=assertion,
        signed=sign_document(assertion.to_xml(), keypair, certificate),
    )


def validate_assertion(
    signed_assertion: SignedAssertion,
    keystore: KeyStore,
    validator: TrustValidator,
    at: float,
    expected_audience: Optional[str] = None,
) -> Assertion:
    """Full relying-party validation; returns the inner assertion.

    Checks the signature and the issuer's trust chain, the validity
    window, and (when given) the audience restriction.

    Raises:
        AssertionError_: on any failure, with a human-readable reason.
    """
    assertion = signed_assertion.assertion
    try:
        verify_document(signed_assertion.signed, keystore, validator, at=at)
    except (SignatureError, CertificateError) as exc:
        raise AssertionError_(f"assertion signature invalid: {exc}") from exc
    if signed_assertion.signed.content != assertion.to_xml():
        # The signature covers the XML; the carried object must be exactly
        # what was signed, or a relying party could be handed a swapped-in
        # assertion riding a valid signature.
        raise AssertionError_(
            f"assertion {assertion.assertion_id} does not match signed content"
        )
    if signed_assertion.signed.signer_subject != assertion.issuer:
        raise AssertionError_(
            f"assertion issuer {assertion.issuer!r} does not match signer "
            f"{signed_assertion.signed.signer_subject!r}"
        )
    if not (assertion.not_before <= at < assertion.not_on_or_after):
        raise AssertionError_(
            f"assertion {assertion.assertion_id} outside validity window "
            f"at t={at} [{assertion.not_before}, {assertion.not_on_or_after})"
        )
    if (
        expected_audience is not None
        and assertion.audience is not None
        and assertion.audience != expected_audience
    ):
        raise AssertionError_(
            f"assertion audience {assertion.audience!r} does not include "
            f"{expected_audience!r}"
        )
    return assertion
