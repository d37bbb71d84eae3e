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
round-trips and benign names keep their bytes.

*Queries take one pass.*  A query message — single, batch, or the
federation's forwarded batch — is parsed by expat once, whole
(:func:`parse_envelope`), and the tree is then checked exactly: root tag
and attribute set; ``saml:Issuer`` first, text only; every following
child an ``XACMLAuthzDecisionQuery`` of exactly ``Issuer`` + ``Request``;
no text or tail between elements, so whitespace, stray elements and
entity references between them are a malformed envelope; ``Count`` in
ASCII digits, equal to the queries found.  Each ``<Request>`` element
goes to the XACML parser's own walk; nothing is parsed twice.  Every
request the PDP decides arrives this way and all of them are distinct,
which is why this path was rebuilt: patterns that tiled the batch, plus
a fresh expat parse of every request fragment, plus the walk, cost
≈ 38 µs per request of a 16-query batch; one pass over the whole
envelope costs ≈ 11 and the whole decode ≈ 27 (Intel Xeon, CPython
3.11).

*Statements keep tile + memo.*  A statement batch is read by patterns
compiled once, in one pass whose matches must *tile* the body (each
inner element starts where the last ended and the last ends the body),
and every ``<Response>`` goes to :func:`~repro.xacml.parser.
parse_response`, whose memo answers a text seen before — a PDP answers
from a small vocabulary.  By measurement that beats one expat pass: on a
16-statement batch the pass alone costs 69 µs, the whole tile + memo
decode 60 µs (same machine).

Either way no text in an envelope, signed or not, goes unread, and
every number in a header — counts, instants, the federation's TTL — is
read by :func:`wire_number`, in a form the writers write or not at all.
Anything else is a ``ValueError``; a :class:`~repro.xacml.parser.
ParseError` (one too) when expat or the XACML parser refused the text.
"""

from __future__ import annotations

import itertools
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterator, Optional, TypeVar

from ..xacml.context import RequestContext, ResponseContext
from ..xacml.parser import ParseError, _request_of, parse_request, parse_response
from ..xacml.serializer import serialize_request, serialize_response
from ..xmlutil import escape_attr, escape_text, unescape

_query_ids = itertools.count(1)
_batch_ids = itertools.count(1)

#: The prefixes query envelopes are written with.  The wire text never
#: declares them: :func:`parse_envelope` parses it inside a holder
#: element that binds them, so a text that redeclares one, or sets a
#: default namespace, renames the elements it covers and fails their tag
#: checks.
NAMESPACES = {
    "xacml-samlp": "urn:oasis:names:tc:xacml:2.0:profile:saml2.0:v2:schema:protocol",
    "saml": "urn:oasis:names:tc:SAML:2.0:assertion",
    "fed": "urn:repro:federation",
}
_HOLDER_OPEN = "<holder " + " ".join(f'xmlns:{p}="{uri}"' for p, uri in NAMESPACES.items()) + ">"


def qualified(name: str) -> str:
    """The tag expat reports for ``prefix:local`` inside the holder."""
    prefix, local = name.split(":")
    return f"{{{NAMESPACES[prefix]}}}{local}"


def parse_envelope(xml_text: str, what: str) -> ET.Element:
    """The one element ``xml_text`` is, from one expat pass.

    The text must be exactly one element with nothing before or after
    it.  Comments, processing instructions, CDATA sections and
    declarations are refused before the parse, because the tree would
    drop them without a trace: a comment between two queries would
    vanish instead of being rejected, and one inside a value would cut
    the value short.  (The one-character tests are ``memchr`` scans; the
    two-character ones, ≈ 90× slower on a 16-query batch, only run when
    the first finds something.)  ``what`` opens every error message: a
    :class:`ParseError` when expat refuses the text, a ``ValueError``
    otherwise.  The caller checks the element itself.
    """
    if ("!" in xml_text and "<!" in xml_text) or ("?" in xml_text and "<?" in xml_text):
        raise ValueError(f"{what}: comment, processing instruction, CDATA or declaration")
    try:
        holder = ET.fromstring(f"{_HOLDER_OPEN}{xml_text}</holder>")
    except ET.ParseError as exc:
        raise ParseError(f"{what}: malformed XML: {exc}") from exc
    if holder.text is not None or len(holder) != 1:
        raise ValueError(what)
    return holder[0]


_ISSUER_TAG = qualified("saml:Issuer")
_QUERY_TAG = qualified("xacml-samlp:XACMLAuthzDecisionQuery")
_BATCH_QUERY_TAG = qualified("xacml-samlp:XACMLAuthzDecisionBatchQuery")
_QUERY_ATTRIBUTES = ["ID", "IssueInstant", "ReturnContext"]
_BATCH_QUERY_ATTRIBUTES = ["ID", "IssueInstant", "Count"]
_NOT_A_QUERY = "not an XACMLAuthzDecisionQuery"
_NOT_A_BATCH_QUERY = "not an XACMLAuthzDecisionBatchQuery"
_NOT_A_STATEMENT = "not an XACMLAuthzDecisionStatement"
_NOT_A_BATCH_STATEMENT = "not an XACMLAuthzDecisionBatchStatement"


_N = TypeVar("_N", int, float)


def wire_number(text: str, kind: type[_N], what: str) -> _N:
    """The number a header field holds, read only in a form ``to_xml``
    writes.

    A count or TTL (``int``) is ASCII digits.  An instant (``float``) is
    finite and is the ``repr`` of the number it reads as — of the float,
    or of the integer a sender stamped.  ``int()`` and ``float()`` alone
    also read ``" 3"``, ``"+3"``, ``"1_0"`` and non-ASCII digits, and
    ``float()`` reads ``"nan"`` and ``"inf"``: a statement stamped
    ``nan`` compares false with every fence, so a decision cache would
    admit it after any invalidation.  Anything else is a ``ValueError``
    naming ``what``.
    """
    if kind is int:
        if text.isascii() and text.isdigit():
            return kind(text)
    else:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if math.isfinite(value) and (
                repr(value) == text or repr(int(value)) == text
            ):
                return kind(value)
    raise ValueError(f"{what}: {text!r} is not a number as the writers write it")


def _instant(text: str, read: dict[str, float], what: str) -> float:
    """``text`` as an instant (:func:`wire_number`), checked once per
    envelope: ``read`` holds what this envelope's decode has checked.
    A batch and every query or statement in it carry one instant, and
    checking every copy (a ``repr`` each) cost ``gateway_plain`` ≈ 2%
    of its decision cost."""
    value = read.get(text)
    if value is None:
        value = read[text] = wire_number(text, float, what)
    return value


def _issuer(issuer: str) -> str:
    """A ``saml:Issuer`` element.  A carriage return is written as a
    character reference: XML reads a literal one as a line feed."""
    text = escape_text(issuer)
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return f"<saml:Issuer>{text}</saml:Issuer>"


def _attributes_of(
    element: ET.Element, tag: str, names: list[str], what: str
) -> dict[str, str]:
    """The attributes of an element that is ``tag`` with exactly
    ``names``, in order, and no text before its first child or after it."""
    attributes = element.attrib
    if element.tag != tag or list(attributes) != names:
        raise ValueError(what)
    if element.text is not None or element.tail is not None:
        raise ValueError(what)
    return attributes


def _issuer_of(element: ET.Element, what: str) -> str:
    """The text of a ``saml:Issuer`` element that holds text only."""
    if element.tag != _ISSUER_TAG or element.keys() or len(element) or element.tail is not None:
        raise ValueError(what)
    return element.text or ""


def _query_of(
    element: ET.Element, what: str, read: dict[str, float]
) -> "XacmlAuthzDecisionQuery":
    """The query a parsed ``XACMLAuthzDecisionQuery`` element says:
    exactly ``saml:Issuer`` + ``Request``."""
    attributes = _attributes_of(element, _QUERY_TAG, _QUERY_ATTRIBUTES, what)
    if len(element) != 2 or element[1].tag != "Request" or element[1].tail is not None:
        raise ValueError(what)
    issuer, request = element
    return XacmlAuthzDecisionQuery(
        request=_request_of(request),
        issuer=_issuer_of(issuer, what),
        issue_instant=_instant(attributes["IssueInstant"], read, what),
        return_context=attributes["ReturnContext"] == "true",
        query_id=attributes["ID"],
    )


_ISSUER = r"<saml:Issuer>([^<]*)</saml:Issuer>"
#: An echoed request, when present, is everything between the response
#: and the statement's end, and must be one ``<Request>`` document.
_STATEMENT_XML = (
    r'<xacml-saml:XACMLAuthzDecisionStatement InResponseTo="([^"]*)" '
    r'IssueInstant="([^"]*)">'
    rf"{_ISSUER}(<Response>.*?</Response>)(.*?)"
    r"</xacml-saml:XACMLAuthzDecisionStatement>"
)
#: A statement alone must be the whole text (``\Z``: ``$`` would also
#: match before a final line feed); inside a batch the same pattern is
#: matched element after element (:func:`_tile`).
_STATEMENT = re.compile(_STATEMENT_XML + r"\Z", re.DOTALL)
_BATCHED_STATEMENT = re.compile(_STATEMENT_XML, re.DOTALL)
_BATCH_STATEMENT = re.compile(
    r"<xacml-saml:XACMLAuthzDecisionBatchStatement "
    r'InResponseTo="([^"]*)" IssueInstant="([^"]*)" Count="([^"]*)">'
    rf"{_ISSUER}(.*)"
    r"</xacml-saml:XACMLAuthzDecisionBatchStatement>\Z",
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
            f"{_issuer(self.issuer)}"
            f"{serialize_request(self.request)}"
            f"</xacml-samlp:XACMLAuthzDecisionQuery>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionQuery":
        return _query_of(parse_envelope(xml_text, _NOT_A_QUERY), _NOT_A_QUERY, {})


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
            f"{_issuer(self.issuer)}"
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
            raise ValueError(_NOT_A_STATEMENT)
        return cls._from_match(match, {})

    @classmethod
    def _from_match(
        cls, match: re.Match[str], read: dict[str, float]
    ) -> "XacmlAuthzDecisionStatement":
        in_response_to, issue_instant, issuer, response, echo = match.groups()
        return cls(
            response=parse_response(response),
            in_response_to=unescape(in_response_to),
            issuer=unescape(issuer),
            issue_instant=_instant(issue_instant, read, _NOT_A_STATEMENT),
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
            f"{_issuer(self.issuer)}"
            f"{inner}"
            f"</xacml-samlp:XACMLAuthzDecisionBatchQuery>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))

    @classmethod
    def from_xml(cls, xml_text: str) -> "XacmlAuthzDecisionBatchQuery":
        return cls.from_element(parse_envelope(xml_text, _NOT_A_BATCH_QUERY))

    @classmethod
    def from_element(cls, element: ET.Element) -> "XacmlAuthzDecisionBatchQuery":
        """The batch a parsed ``XACMLAuthzDecisionBatchQuery`` element
        says — alone, or inside the wrapper of another profile."""
        what = _NOT_A_BATCH_QUERY
        attributes = _attributes_of(element, _BATCH_QUERY_TAG, _BATCH_QUERY_ATTRIBUTES, what)
        count = wire_number(attributes["Count"], int, what)
        if not len(element):
            raise ValueError(f"{what}: no Issuer")
        read: dict[str, float] = {}
        issue_instant = _instant(attributes["IssueInstant"], read, what)
        issuer, *inner = element
        queries = tuple(_query_of(query, what, read) for query in inner)
        if len(queries) != count:
            raise ValueError(f"batch declares {count} queries, found {len(queries)}")
        return cls(
            queries=queries,
            issuer=_issuer_of(issuer, what),
            issue_instant=issue_instant,
            batch_id=attributes["ID"],
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
            f"{_issuer(self.issuer)}"
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
            raise ValueError(_NOT_A_BATCH_STATEMENT)
        in_response_to, instant, count, issuer, body = match.groups()
        declared = wire_number(count, int, _NOT_A_BATCH_STATEMENT)
        read: dict[str, float] = {}
        issue_instant = _instant(instant, read, _NOT_A_BATCH_STATEMENT)
        statements = tuple(
            XacmlAuthzDecisionStatement._from_match(inner, read)
            for inner in _tile(
                _BATCHED_STATEMENT, body, "XACMLAuthzDecisionBatchStatement"
            )
        )
        if len(statements) != declared:
            raise ValueError(
                f"batch declares {count} statements, found {len(statements)}"
            )
        return cls(
            statements=statements,
            in_response_to=unescape(in_response_to),
            issuer=unescape(issuer),
            issue_instant=issue_instant,
        )
