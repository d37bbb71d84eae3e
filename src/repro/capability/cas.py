"""Community Authorization Service (CAS-style capability service).

"There are two well-known examples of a capability-based access control
system.  Those are the Community Authorization Service (CAS) which
provides security for Globus and Virtual Organization Membership Service
(VOMS) ... The CAS system uses SAML assertions for capability encoding"
(paper §2.2).

The service holds VO-level policies (an ordinary XACML engine) and issues
signed SAML capability assertions after *pre-screening* requesters — the
paper's "capability service [can] pre-screen clients and issue
capabilities based on general information".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..components.base import Component, ComponentIdentity, RpcFault
from ..saml.assertions import (
    Assertion,
    AttributeStatement,
    AuthzDecisionStatement,
    SignedAssertion,
    sign_assertion,
)
from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.attributes import Attribute, Category, string
from ..xacml.context import Decision, RequestContext
from ..xacml.engine import PdpEngine
from .tokens import CAPABILITY_SCOPE_ATTR, CAPABILITY_VO_ATTR, CapabilityScope

#: Default capability lifetime (simulated seconds).
CAPABILITY_LIFETIME = 300.0


@dataclass(frozen=True)
class CapabilityRequest:
    """What a client asks the capability service for."""

    subject_id: str
    scopes: tuple[CapabilityScope, ...]
    audience: Optional[str] = None

    def to_xml(self) -> str:
        scopes = "".join(
            f'<Scope resource="{s.resource_id}" action="{s.action_id}"/>'
            for s in self.scopes
        )
        audience = f' audience="{self.audience}"' if self.audience else ""
        return (
            f'<CapabilityRequest subject="{self.subject_id}"{audience}>'
            f"{scopes}</CapabilityRequest>"
        )

    @classmethod
    def from_xml(cls, xml_text: str) -> "CapabilityRequest":
        head = re.match(
            r'<CapabilityRequest subject="([^"]*)"(?: audience="([^"]*)")?>',
            xml_text,
        )
        if head is None:
            raise ValueError("not a CapabilityRequest")
        scopes = tuple(
            CapabilityScope(resource_id=m.group(1), action_id=m.group(2))
            for m in re.finditer(
                r'<Scope resource="([^"]*)" action="([^"]*)"/>', xml_text
            )
        )
        return cls(
            subject_id=head.group(1),
            scopes=scopes,
            audience=head.group(2),
        )


class CommunityAuthorizationService(Component):
    """Issues SAML capability assertions backed by VO policies.

    The subject attribute store is populated by the VO (roles, VO
    membership); the issuing engine evaluates each requested scope and
    only grants the scopes its policies permit — partially grantable
    requests yield a capability covering the permitted subset.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str,
        identity: ComponentIdentity,
        vo_name: str = "",
        capability_lifetime: float = CAPABILITY_LIFETIME,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.vo_name = vo_name
        self.capability_lifetime = capability_lifetime
        self.engine = PdpEngine()
        self._subject_attributes: dict[str, dict[str, list[str]]] = {}
        self.capabilities_issued = 0
        self.requests_refused = 0
        self.on("cap.request", self._handle_request)

    # -- community state ---------------------------------------------------------

    def set_subject_attribute(
        self, subject_id: str, attribute_id: str, values: list[str]
    ) -> None:
        self._subject_attributes.setdefault(subject_id, {})[attribute_id] = list(
            values
        )

    def add_policy(self, element) -> None:
        self.engine.add_policy(element)

    # -- issuing ------------------------------------------------------------------

    def _screen(self, subject_id: str, scope: CapabilityScope) -> bool:
        """Pre-screen one scope against the community policies."""
        request = RequestContext.simple(
            subject_id, scope.resource_id, scope.action_id
        )
        for attribute_id, values in self._subject_attributes.get(
            subject_id, {}
        ).items():
            if values:  # an empty bag is an absent attribute
                request.add(
                    Category.SUBJECT,
                    Attribute(attribute_id, tuple(string(v) for v in values)),
                )
        return self.engine.decide(request, current_time=self.now) is Decision.PERMIT

    def issue(self, cap_request: CapabilityRequest) -> SignedAssertion:
        """Issue a capability for the permitted subset of requested scopes.

        Raises:
            RpcFault: when no requested scope is permitted.
        """
        granted = [
            scope
            for scope in cap_request.scopes
            if self._screen(cap_request.subject_id, scope)
        ]
        if not granted:
            self.requests_refused += 1
            raise RpcFault(
                "cas:refused",
                f"no requested scope permitted for {cap_request.subject_id!r}",
            )
        attributes = [
            (CAPABILITY_SCOPE_ATTR, scope.encode()) for scope in granted
        ]
        if self.vo_name:
            attributes.append((CAPABILITY_VO_ATTR, self.vo_name))
        statements = [
            AttributeStatement(attributes=tuple(attributes)),
        ] + [
            AuthzDecisionStatement(
                resource=scope.resource_id,
                action=scope.action_id,
                decision="Permit",
            )
            for scope in granted
        ]
        assertion = Assertion(
            issuer=self.identity.name,
            subject_id=cap_request.subject_id,
            issue_instant=self.now,
            not_before=self.now,
            not_on_or_after=self.now + self.capability_lifetime,
            statements=tuple(statements),
            audience=cap_request.audience,
        )
        self.capabilities_issued += 1
        return sign_assertion(
            assertion, self.identity.keypair, self.identity.certificate
        )

    # -- wire interface ------------------------------------------------------------

    def _handle_request(self, message: Message) -> object:
        cap_request = CapabilityRequest.from_xml(str(message.payload))
        signed = self.issue(cap_request)
        return _CapabilityPayload(signed.to_xml(), signed)


class _CapabilityPayload(str):
    """XML payload (authoritative for size) carrying the parsed token."""

    def __new__(cls, xml_text: str, signed: SignedAssertion):
        instance = super().__new__(cls, xml_text)
        instance.signed_assertion = signed
        return instance


def capability_from_payload(payload: object) -> SignedAssertion:
    signed = getattr(payload, "signed_assertion", None)
    if signed is None:
        raise ValueError("payload does not carry a capability assertion")
    return signed
