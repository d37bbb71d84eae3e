"""SAML profile of XACML.

"The SAML profile for XACML defines how to use SAML to protect,
transport, and request XACML schema instances and other information in
XACML-based authorisation systems" (paper §2.3).  This module provides
the two message shapes that profile defines:

* :class:`XacmlAuthzDecisionQuery` — a SAML query wrapping an XACML
  request context (PEP → PDP);
* :class:`XacmlAuthzDecisionStatement` — a SAML statement wrapping an
  XACML response context (PDP → PEP), usable inside a signed assertion so
  decisions are attributable and non-forgeable.

Plus the batched envelope pair the decision fabric rides on:

* :class:`XacmlAuthzDecisionBatchQuery` — N queries under one envelope
  (and, in secure mode, one WS-Security signature for the lot);
* :class:`XacmlAuthzDecisionBatchStatement` — the N matching statements,
  one per inner query id, in query order.

The wire contract.  ``to_xml`` formats the SAML wrapper around the
context the XACML serializer wrote; header fields a caller chooses
(``Issuer``, ``ID``, ``InResponseTo``) are escaped, so any string
round-trips and benign names keep their bytes.  ``from_xml`` reads the
wrapper with patterns compiled once, hands every ``<Request>`` /
``<Response>`` fragment to the XACML parser (expat), and decodes a batch
in one pass whose matches must *tile* the body: each inner element
starts where the last ended and the last ends the body, so no text in
the envelope — signed or not — goes unparsed.  Anything else is a
``ValueError`` (wrapper) or :class:`~repro.xacml.parser.ParseError`
(context).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..xacml.context import RequestContext, ResponseContext
from ..xacml.parser import parse_request, parse_response
from ..xacml.serializer import serialize_request, serialize_response
from ..xmlutil import escape_attr, escape_text, unescape

_query_ids = itertools.count(1)
_batch_ids = itertools.count(1)

#: An XACML request context as the serializer writes it; the empty
#: request has the short form.
_REQUEST = r"(<Request>.*?</Request>|<Request />)"
_ISSUER = r"<saml:Issuer>([^<]*)</saml:Issuer>"

_QUERY_XML = (
    r'<xacml-samlp:XACMLAuthzDecisionQuery ID="([^"]*)" '
    r'IssueInstant="([^"]*)" ReturnContext="([^"]*)">'
    rf"{_ISSUER}{_REQUEST}"
    r"</xacml-samlp:XACMLAuthzDecisionQuery>"
)
_STATEMENT_XML = (
    r'<xacml-saml:XACMLAuthzDecisionStatement InResponseTo="([^"]*)" '
    r'IssueInstant="([^"]*)">'
    rf"{_ISSUER}(<Response>.*?</Response>){_REQUEST}?"
    r"</xacml-saml:XACMLAuthzDecisionStatement>"
)
#: A message alone must be the whole text; inside a batch the same
#: pattern is matched element after element (:func:`_tile`).
_QUERY = re.compile(_QUERY_XML + "$", re.DOTALL)
_BATCHED_QUERY = re.compile(_QUERY_XML, re.DOTALL)
_STATEMENT = re.compile(_STATEMENT_XML + "$", re.DOTALL)
_BATCHED_STATEMENT = re.compile(_STATEMENT_XML, re.DOTALL)
_BATCH_QUERY = re.compile(
    r'<xacml-samlp:XACMLAuthzDecisionBatchQuery ID="([^"]*)" '
    r'IssueInstant="([^"]*)" Count="(\d+)">'
    rf"{_ISSUER}(.*)"
    r"</xacml-samlp:XACMLAuthzDecisionBatchQuery>$",
    re.DOTALL,
)
_BATCH_STATEMENT = re.compile(
    r"<xacml-saml:XACMLAuthzDecisionBatchStatement "
    r'InResponseTo="([^"]*)" IssueInstant="([^"]*)" Count="(\d+)">'
    rf"{_ISSUER}(.*)"
    r"</xacml-saml:XACMLAuthzDecisionBatchStatement>$",
    re.DOTALL,
)


def _tile(
    pattern: re.Pattern[str], body: str, what: str
) -> Iterator[re.Match[str]]:
    """The matches of ``pattern`` that cover ``body`` end to end.

    Each must start where the last ended and the last must end the
    body: text between or after the inner elements is content nobody
    would parse (and, in a signed envelope, signed content), so it is a
    malformed batch, not something to skip.
    """
    position = 0
    while position < len(body):
        match = pattern.match(body, position)
        if match is None:
            raise ValueError(f"not an {what}")
        yield match
        position = match.end()


@dataclass(frozen=True)
class XacmlAuthzDecisionQuery:
    """A SAML-wrapped XACML request, as sent by a PEP to a PDP."""

    request: RequestContext
    issuer: str
    issue_instant: float
    #: When true the PDP must include the evaluated request back in its
    #: statement, binding decision to request (profile's ReturnContext).
    return_context: bool = False
    query_id: str = field(default_factory=lambda: f"xacmlq-{next(_query_ids)}")

    def to_xml(self) -> str:
        return (
            f"<xacml-samlp:XACMLAuthzDecisionQuery "
            f'ID="{escape_attr(self.query_id)}" '
            f'IssueInstant="{self.issue_instant}" '
            f'ReturnContext="{"true" if self.return_context else "false"}">'
            f"<saml:Issuer>{escape_text(self.issuer)}</saml:Issuer>"
            f"{serialize_request(self.request)}"
            f"</xacml-samlp:XACMLAuthzDecisionQuery>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionQuery":
        match = _QUERY.match(xml_text)
        if match is None:
            raise ValueError("not an XACMLAuthzDecisionQuery")
        return cls._from_match(match)

    @classmethod
    def _from_match(cls, match: re.Match[str]) -> "XacmlAuthzDecisionQuery":
        query_id, issue_instant, return_context, issuer, request = (
            match.groups()
        )
        return cls(
            request=parse_request(request),
            issuer=unescape(issuer),
            issue_instant=float(issue_instant),
            return_context=return_context == "true",
            query_id=unescape(query_id),
        )


@dataclass(frozen=True)
class XacmlAuthzDecisionStatement:
    """A SAML-wrapped XACML response, as returned by a PDP."""

    response: ResponseContext
    in_response_to: str
    issuer: str
    issue_instant: float
    request_echo: Optional[RequestContext] = None

    def to_xml(self) -> str:
        echo = (
            serialize_request(self.request_echo)
            if self.request_echo is not None
            else ""
        )
        return (
            f'<xacml-saml:XACMLAuthzDecisionStatement '
            f'InResponseTo="{escape_attr(self.in_response_to)}" '
            f'IssueInstant="{self.issue_instant}">'
            f"<saml:Issuer>{escape_text(self.issuer)}</saml:Issuer>"
            f"{serialize_response(self.response)}{echo}"
            f"</xacml-saml:XACMLAuthzDecisionStatement>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionStatement":
        match = _STATEMENT.match(xml_text)
        if match is None:
            raise ValueError("not an XACMLAuthzDecisionStatement")
        return cls._from_match(match)

    @classmethod
    def _from_match(
        cls, match: re.Match[str]
    ) -> "XacmlAuthzDecisionStatement":
        in_response_to, issue_instant, issuer, response, echo = match.groups()
        return cls(
            response=parse_response(response),
            in_response_to=unescape(in_response_to),
            issuer=unescape(issuer),
            issue_instant=float(issue_instant),
            request_echo=parse_request(echo) if echo else None,
        )


@dataclass(frozen=True)
class XacmlAuthzDecisionBatchQuery:
    """N decision queries carried in one envelope (PEP → PDP).

    Per-message costs — one transport round-trip and, on the secure
    channel, one WS-Security verification — are paid once for the whole
    batch instead of once per request.  A batch of one is wire-compatible
    with sending the inner query alone apart from the wrapper element.
    """

    queries: tuple[XacmlAuthzDecisionQuery, ...]
    issuer: str
    issue_instant: float
    batch_id: str = field(default_factory=lambda: f"xacmlb-{next(_batch_ids)}")

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("a batch query needs at least one inner query")

    @classmethod
    def for_requests(
        cls,
        requests: list[RequestContext],
        issuer: str,
        issue_instant: float,
    ) -> "XacmlAuthzDecisionBatchQuery":
        return cls(
            queries=tuple(
                XacmlAuthzDecisionQuery(
                    request=request, issuer=issuer, issue_instant=issue_instant
                )
                for request in requests
            ),
            issuer=issuer,
            issue_instant=issue_instant,
        )

    def to_xml(self) -> str:
        inner = "".join(query.to_xml() for query in self.queries)
        return (
            f"<xacml-samlp:XACMLAuthzDecisionBatchQuery "
            f'ID="{escape_attr(self.batch_id)}" '
            f'IssueInstant="{self.issue_instant}" Count="{len(self.queries)}">'
            f"<saml:Issuer>{escape_text(self.issuer)}</saml:Issuer>"
            f"{inner}"
            f"</xacml-samlp:XACMLAuthzDecisionBatchQuery>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionBatchQuery":
        match = _BATCH_QUERY.match(xml_text)
        if match is None:
            raise ValueError("not an XACMLAuthzDecisionBatchQuery")
        batch_id, issue_instant, count, issuer, body = match.groups()
        queries = tuple(
            XacmlAuthzDecisionQuery._from_match(inner)
            for inner in _tile(
                _BATCHED_QUERY, body, "XACMLAuthzDecisionBatchQuery"
            )
        )
        if len(queries) != int(count):
            raise ValueError(
                f"batch declares {count} queries, found {len(queries)}"
            )
        return cls(
            queries=queries,
            issuer=unescape(issuer),
            issue_instant=float(issue_instant),
            batch_id=unescape(batch_id),
        )


@dataclass(frozen=True)
class XacmlAuthzDecisionBatchStatement:
    """The PDP's answers to a batch query, in query order (PDP → PEP)."""

    statements: tuple[XacmlAuthzDecisionStatement, ...]
    in_response_to: str
    issuer: str
    issue_instant: float

    def to_xml(self) -> str:
        inner = "".join(statement.to_xml() for statement in self.statements)
        return (
            f"<xacml-saml:XACMLAuthzDecisionBatchStatement "
            f'InResponseTo="{escape_attr(self.in_response_to)}" '
            f'IssueInstant="{self.issue_instant}" '
            f'Count="{len(self.statements)}">'
            f"<saml:Issuer>{escape_text(self.issuer)}</saml:Issuer>"
            f"{inner}"
            f"</xacml-saml:XACMLAuthzDecisionBatchStatement>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionBatchStatement":
        match = _BATCH_STATEMENT.match(xml_text)
        if match is None:
            raise ValueError("not an XACMLAuthzDecisionBatchStatement")
        in_response_to, issue_instant, count, issuer, body = match.groups()
        statements = tuple(
            XacmlAuthzDecisionStatement._from_match(inner)
            for inner in _tile(
                _BATCHED_STATEMENT, body, "XACMLAuthzDecisionBatchStatement"
            )
        )
        if len(statements) != int(count):
            raise ValueError(
                f"batch declares {count} statements, found {len(statements)}"
            )
        return cls(
            statements=statements,
            in_response_to=unescape(in_response_to),
            issuer=unescape(issuer),
            issue_instant=float(issue_instant),
        )
