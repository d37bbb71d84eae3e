"""Subjects and Identity Providers.

The paper's heterogeneity challenge (Section 3.1) notes that "subjects'
credentials will be issued by Identity Providers (IdP) from separate
administrative domains" and describes the identity-based trust style
where a service "may simply contact the Identity Provider and ask for all
the information, collectively referred to as profile, that it requires".

:class:`IdentityProvider` is that component: it authenticates subjects of
its home domain and issues signed SAML attribute assertions (profiles).
Experiment E9 compares this style against capabilities and trust
negotiation as the fraction of stranger subjects grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..components.base import Component, ComponentIdentity, RpcFault
from ..saml.assertions import (
    Assertion,
    AttributeStatement,
    AuthnStatement,
    SignedAssertion,
    sign_assertion,
)
from ..simnet.message import Message
from ..simnet.network import Network

#: Default lifetime of issued identity assertions (simulated seconds).
ASSERTION_LIFETIME = 300.0

#: Well-known XACML attribute URN for VO membership claims.
SUBJECT_VO_MEMBERSHIP = "urn:repro:subject:vo-membership"

#: Friendly aliases accepted by Subject/IdP APIs, resolved to the URNs the
#: XACML policies designate.
ATTRIBUTE_ALIASES = {
    "role": "urn:oasis:names:tc:xacml:2.0:subject:role",
    "clearance": "urn:repro:subject:clearance",
    "domain": "urn:repro:subject:home-domain",
    "vo": SUBJECT_VO_MEMBERSHIP,
}


def resolve_attribute_name(name: str) -> str:
    """Map a friendly attribute alias to its URN (URNs pass through)."""
    return ATTRIBUTE_ALIASES.get(name, name)


@dataclass
class Subject:
    """A principal: user or service acting as a client."""

    subject_id: str
    home_domain: str
    attributes: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.attributes = {
            resolve_attribute_name(name): list(values)
            for name, values in self.attributes.items()
        }

    def attribute(self, name: str) -> list[str]:
        return list(self.attributes.get(resolve_attribute_name(name), []))

    def add_attribute(self, name: str, value: str) -> None:
        self.attributes.setdefault(resolve_attribute_name(name), []).append(value)


class IdentityProvider(Component):
    """Issues identity/attribute assertions for its domain's subjects.

    Operations:

    * ``idp.authenticate`` — authenticate a subject, returning a signed
      assertion with an AuthnStatement and the subject's attributes;
    * ``idp.profile`` — the identity-based flow: a *service* (relying
      party) asks for a subject's profile directly.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str,
        identity: ComponentIdentity,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self._subjects: dict[str, Subject] = {}
        self.assertions_issued = 0
        self.profile_requests = 0
        self.on("idp.authenticate", self._handle_authenticate)
        self.on("idp.profile", self._handle_profile)

    def register_subject(self, subject: Subject) -> None:
        if subject.home_domain != self.domain:
            raise ValueError(
                f"subject {subject.subject_id!r} belongs to "
                f"{subject.home_domain!r}, not {self.domain!r}"
            )
        self._subjects[subject.subject_id] = subject

    def knows(self, subject_id: str) -> bool:
        return subject_id in self._subjects

    # -- issuing -----------------------------------------------------------------

    def issue_assertion(
        self, subject_id: str, audience: Optional[str] = None
    ) -> SignedAssertion:
        """Authenticate ``subject_id`` and issue a signed profile assertion."""
        subject = self._subjects.get(subject_id)
        if subject is None:
            raise RpcFault(
                "idp:unknown-subject",
                f"{subject_id!r} is not registered in domain {self.domain!r}",
            )
        attributes = tuple(
            (name, value)
            for name, values in sorted(subject.attributes.items())
            for value in values
        )
        assertion = Assertion(
            issuer=self.identity.name,
            subject_id=subject_id,
            issue_instant=self.now,
            not_before=self.now,
            not_on_or_after=self.now + ASSERTION_LIFETIME,
            statements=(
                AuthnStatement(authn_instant=self.now),
                AttributeStatement(attributes=attributes),
            ),
            audience=audience,
            assertion_id=self.network.mint("saml"),
        )
        self.assertions_issued += 1
        return sign_assertion(
            assertion, self.identity.keypair, self.identity.certificate
        )

    # -- handlers ----------------------------------------------------------------

    def _handle_authenticate(self, message: Message) -> object:
        subject_id = str(message.payload)
        signed = self.issue_assertion(subject_id)
        # The assertion XML is the payload; the object rides along for the
        # receiving component (size accounting stays XML-accurate).
        reply = signed.to_xml()
        return _AssertionPayload(reply, signed)

    def _handle_profile(self, message: Message) -> object:
        self.profile_requests += 1
        return self._handle_authenticate(message)


class _AssertionPayload(str):
    """A str payload (XML) carrying the parsed assertion object."""

    def __new__(cls, xml_text: str, signed: SignedAssertion):
        instance = super().__new__(cls, xml_text)
        instance.signed_assertion = signed
        return instance
