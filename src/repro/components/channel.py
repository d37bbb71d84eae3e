"""The decision channel: the one format of a decision exchange.

"Decision points should only reveal decisions on authentic access
request decision queries", and enforcement points must know a decision
really came from the decision point they asked (paper §3.2).  Every hop
of the fabric — PEP→PDP, gateway→PDP, gateway→gateway, replica→replica —
is the same exchange: a query body travels plain under a base action or
wrapped in one signed SOAP envelope under ``base + ".secure"``, and the
reply comes back the same way.  This module owns that format once, and
is the only place under ``components/`` that touches WS-Security:

* **naming** — :func:`secure_action` / :func:`is_secure_action` /
  :func:`base_action`;
* **client half** — :meth:`DecisionChannel.seal` (wrap + sign a query
  when the channel is secure), :meth:`~DecisionChannel.open_reply`
  (verify, pin the signer to the destination asked),
  :meth:`~DecisionChannel.open_statement_reply` (plus decode and query
  id validation) and :meth:`~DecisionChannel.open_batch_reply` (plus
  decode, batch id and statement-count validation);
* **server half** — :meth:`~DecisionChannel.open_request` (verify a
  query arriving on a secure action → ``(body, signer)``) and
  :meth:`~DecisionChannel.seal_reply`.

Whether a server *refuses* plain queries is its own policy (the PDP's
``require_signed_queries``, a gateway's ``secure_channel``); how an
exchange is authenticated is not.
"""

from __future__ import annotations

from typing import Optional

from ..saml.xacml_profile import (
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionStatement,
)
from ..simnet.message import Message
from ..wsvc.soap import SoapEnvelope
from ..wsvc.ws_security import (
    SecurityConfig,
    WsSecurityError,
    secure_envelope,
    signer_of,
    verify_envelope,
)
from .base import Component, RpcFault

SECURE_SUFFIX = ".secure"

_REQUIRE_SIGNATURE = SecurityConfig(require_signature=True)


def secure_action(base: str) -> str:
    """The action a ``base`` exchange travels under when signed."""
    return base + SECURE_SUFFIX


def is_secure_action(action: str) -> bool:
    return action.endswith(SECURE_SUFFIX)


def base_action(action: str) -> str:
    """The action with any secure suffix stripped."""
    return action.removesuffix(SECURE_SUFFIX)


class DecisionChannel:
    """One component's end of every decision exchange it takes part in.

    Args:
        component: the owner; its identity signs and verifies.
        secure: the client stance — sign outbound queries and accept
            only replies signed by the destination asked.  The server
            half follows the inbound action instead, so one component
            can serve plain and signed callers side by side.
        role: ``"pep"`` / ``"gateway"`` / ``"pdp"``; prefixes the fault
            codes this channel raises.
    """

    def __init__(
        self, component: Component, secure: bool = False, role: str = "component"
    ) -> None:
        if secure and component.identity is None:
            raise ValueError(
                f"{role} {component.name} needs an identity for the "
                "secure channel"
            )
        self.component = component
        self.secure = secure
        self.role = role

    def _sign(self, action: str, body_xml: str) -> SoapEnvelope:
        identity = self.component.identity
        return secure_envelope(
            SoapEnvelope(action=action, body_xml=body_xml),
            identity.keypair,
            identity.certificate,
            identity.keystore,
        )

    def _verify(self, payload: object, fault: str) -> SoapEnvelope:
        identity = self.component.identity
        if not isinstance(payload, SoapEnvelope):
            raise RpcFault(f"{self.role}:{fault}", "expected a SOAP envelope")
        if identity is None:
            raise RpcFault(
                f"{self.role}:misconfigured", "secure endpoint without identity"
            )
        return verify_envelope(
            payload,
            identity.keystore,
            identity.validator,
            decrypt_with=identity.keypair,
            config=_REQUIRE_SIGNATURE,
            at=self.component.now,
        )

    # -- client half --------------------------------------------------------------

    def seal(self, base: str, body_xml: str) -> tuple[str, object]:
        """The ``(action, payload)`` one query body travels as."""
        if not self.secure:
            return base, body_xml
        action = secure_action(base)
        return action, self._sign(action, body_xml)

    def open_reply(self, reply: Message, destination: str) -> str:
        """The reply's body, verified as signed by ``destination``.

        Raises :class:`WsSecurityError` on a bad or foreign signature —
        a decision nobody can vouch for is no decision (fail-safe).
        """
        if not self.secure:
            return str(reply.payload)
        clear = self._verify(reply.payload, "bad-reply")
        signer = signer_of(clear)
        if signer != destination:
            raise WsSecurityError(
                f"decision signed by {signer!r}, expected {destination!r}"
            )
        return clear.body_xml

    def _decode_reply(self, decode, reply: Message, destination: str, asked: str):
        """``decode`` the opened reply and check it answers ``asked``.

        A reply that does not decode, or that answers another query, is
        a ``{role}:bad-reply`` fault.  The signature covers action and
        body, and every reply travels under the same action: without the
        id check any statement ever signed would verify as the answer.
        """
        try:
            answer = decode(self.open_reply(reply, destination))
        except ValueError as exc:  # ParseError is one
            raise RpcFault(f"{self.role}:bad-reply", str(exc)) from exc
        if answer.in_response_to != asked:
            raise RpcFault(
                f"{self.role}:bad-reply",
                f"reply answers {answer.in_response_to!r}, expected {asked!r}",
            )
        return answer

    def open_statement_reply(
        self, reply: Message, destination: str, query_id: str
    ) -> XacmlAuthzDecisionStatement:
        """Open a single-query reply and check it answers ``query_id``."""
        return self._decode_reply(
            XacmlAuthzDecisionStatement.from_xml, reply, destination, query_id
        )

    def open_batch_reply(
        self, reply: Message, destination: str, batch_id: str, count: int
    ) -> XacmlAuthzDecisionBatchStatement:
        """Open a batch reply and check it answers what was asked."""
        answer = self._decode_reply(
            XacmlAuthzDecisionBatchStatement.from_xml, reply, destination, batch_id
        )
        if len(answer.statements) != count:
            raise RpcFault(
                f"{self.role}:bad-reply",
                f"{len(answer.statements)} statements for {count} requests",
            )
        return answer

    # -- server half --------------------------------------------------------------

    def open_request(self, message: Message) -> tuple[str, Optional[str]]:
        """``(body, signer)`` of an inbound query; signer None when plain.

        Raises :class:`WsSecurityError` when a signed query does not
        verify; the server maps that onto its own fault code.
        """
        if not is_secure_action(message.kind):
            return str(message.payload), None
        clear = self._verify(message.payload, "bad-request")
        return clear.body_xml, signer_of(clear)

    def seal_reply(
        self, message: Message, body_xml: str, sign: bool = True
    ) -> object:
        """The reply payload matching how ``message`` arrived."""
        if not is_secure_action(message.kind):
            return body_xml
        action = f"{message.kind}:result"
        if sign:
            return self._sign(action, body_xml)
        return SoapEnvelope(action=action, body_xml=body_xml)
