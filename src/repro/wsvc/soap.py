"""SOAP 1.2-style envelopes.

Web Services in the paper exchange SOAP messages whose headers carry
security material (SAML assertions, WS-Security signatures) and whose
bodies carry application payloads (XACML contexts, business calls).  The
envelope here serializes to real XML so that every layer of wrapping has a
measurable byte cost — the substance of experiment E7.

Parsing uses a purpose-built scanner rather than ElementTree: header
blocks and bodies must round-trip *byte-exactly* (signatures cover them),
and generic XML libraries re-write namespace prefixes on re-serialization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

SOAP_NS = "http://www.w3.org/2003/05/soap-envelope"

_MUST_UNDERSTAND = ' soap:mustUnderstand="true"'
#: Bytes :meth:`SoapEnvelope.to_xml` writes around its parts: the
#: envelope with an empty action and body, and the header section.
_ENVELOPE_BYTES = len(
    f'<soap:Envelope xmlns:soap="{SOAP_NS}" action="">'
    "<soap:Body></soap:Body></soap:Envelope>"
)
_HEADER_SECTION_BYTES = len("<soap:Header></soap:Header>")


def _utf8_len(text: str) -> int:
    """Bytes ``text`` takes in UTF-8 (ASCII text without encoding it)."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class SoapFault(Exception):
    """A SOAP-level fault, raised by services and carried in responses."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


@dataclass
class HeaderBlock:
    """One SOAP header block: a name plus raw XML content."""

    name: str
    content_xml: str
    must_understand: bool = False

    def to_xml(self) -> str:
        mu = _MUST_UNDERSTAND if self.must_understand else ""
        return f"<{self.name}{mu}>{self.content_xml}</{self.name}>"

    @property
    def wire_size(self) -> int:
        """``len(self.to_xml().encode("utf-8"))``, without writing it."""
        return (
            2 * _utf8_len(self.name)
            + 5  # "<", ">", "</", ">"
            + (len(_MUST_UNDERSTAND) if self.must_understand else 0)
            + _utf8_len(self.content_xml)
        )


@dataclass
class SoapEnvelope:
    """A SOAP envelope: action, header blocks and an XML body."""

    action: str
    body_xml: str
    headers: list[HeaderBlock] = field(default_factory=list)

    def add_header(
        self, name: str, content_xml: str, must_understand: bool = False
    ) -> None:
        self.headers.append(HeaderBlock(name, content_xml, must_understand))

    def header(self, name: str) -> Optional[HeaderBlock]:
        for block in self.headers:
            if block.name == name:
                return block
        return None

    def to_xml(self) -> str:
        header_xml = "".join(block.to_xml() for block in self.headers)
        header_part = f"<soap:Header>{header_xml}</soap:Header>" if header_xml else ""
        return (
            f'<soap:Envelope xmlns:soap="{SOAP_NS}" action="{self.action}">'
            f"{header_part}<soap:Body>{self.body_xml}</soap:Body></soap:Envelope>"
        )

    @property
    def wire_size(self) -> int:
        """``len(self.to_xml().encode("utf-8"))``: the parts' byte
        lengths added up, without writing the envelope."""
        size = _ENVELOPE_BYTES + _utf8_len(self.action) + _utf8_len(self.body_xml)
        if self.headers:
            size += _HEADER_SECTION_BYTES + sum(
                block.wire_size for block in self.headers
            )
        return size

    @classmethod
    def from_xml(cls, xml_text: str) -> "SoapEnvelope":
        """Parse an envelope produced by :meth:`to_xml`.

        Inner XML of headers and body is preserved byte-exactly so that
        signatures computed before transmission still verify after.
        """
        envelope_match = re.match(
            r"<soap:Envelope [^>]*action=\"([^\"]*)\"[^>]*>(.*)</soap:Envelope>$",
            xml_text,
            re.DOTALL,
        )
        if envelope_match is None:
            raise SoapFault("soap:Sender", "not a SOAP envelope")
        action, inner = envelope_match.group(1), envelope_match.group(2)
        headers: list[HeaderBlock] = []
        header_match = re.match(
            r"<soap:Header>(.*)</soap:Header>(<soap:Body>.*)$", inner, re.DOTALL
        )
        if header_match is not None:
            headers = _parse_header_blocks(header_match.group(1))
            inner = header_match.group(2)
        body_match = re.match(r"<soap:Body>(.*)</soap:Body>$", inner, re.DOTALL)
        if body_match is None:
            raise SoapFault("soap:Sender", "envelope has no Body")
        return cls(action=action, body_xml=body_match.group(1), headers=headers)


def _parse_header_blocks(header_xml: str) -> list[HeaderBlock]:
    """Split the Header section into top-level blocks, respecting nesting."""
    blocks: list[HeaderBlock] = []
    position = 0
    open_tag = re.compile(r"<([\w:.-]+)((?:\s[^>]*?)?)(/?)>")
    while position < len(header_xml):
        match = open_tag.match(header_xml, position)
        if match is None:
            raise SoapFault(
                "soap:Sender", f"bad header content near {header_xml[position:position+40]!r}"
            )
        name, attrs, self_closing = match.group(1), match.group(2), match.group(3)
        must = 'soap:mustUnderstand="true"' in attrs
        if self_closing:
            blocks.append(HeaderBlock(name=name, content_xml="", must_understand=must))
            position = match.end()
            continue
        # Find the matching close tag for this block, accounting for nested
        # occurrences of the same tag name.
        depth = 1
        cursor = match.end()
        token = re.compile(f"<{re.escape(name)}(?:\\s[^>]*?)?(/?)>|</{re.escape(name)}>")
        while depth > 0:
            next_token = token.search(header_xml, cursor)
            if next_token is None:
                raise SoapFault("soap:Sender", f"unclosed header block <{name}>")
            if next_token.group(0).startswith("</"):
                depth -= 1
            elif not next_token.group(1):
                depth += 1
            cursor = next_token.end()
        content = header_xml[match.end() : cursor - len(f"</{name}>")]
        blocks.append(HeaderBlock(name=name, content_xml=content, must_understand=must))
        position = cursor
    return blocks


def request_envelope(action: str, body_xml: str) -> SoapEnvelope:
    return SoapEnvelope(action=action, body_xml=body_xml)
