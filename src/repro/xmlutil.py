"""Shared XML escaping helpers for the hand-rolled wire formats.

Every wire format in this repository serializes XML by string formatting
and parses it by regex; values that contain markup characters must
therefore be escaped on write and unescaped on read.  ``quoteattr``
emits ``name="value"`` (or ``name='value'`` when the value itself
contains a double quote), and :func:`parse_attrs` is its exact inverse.
:func:`escape_text` / :func:`escape_attr` are ``ElementTree``'s own
rules for element text and for a value written between double quotes —
what the XACML context writer and the SAML profile headers use, so
their bytes are the bytes ``ET.tostring`` would produce — and
:func:`unescape` inverts both.  The helpers started life in
:mod:`repro.revocation.records`; they live here, below every layer, so
that low-layer formats (the PIP query protocol, for one) can use them
without an upward dependency.
"""

from __future__ import annotations

import re
from xml.sax import saxutils

#: What an escaper may emit beyond &amp;/&lt;/&gt;: ``quoteattr`` and
#: :func:`escape_attr` name the quote characters and write line breaks
#: and tabs as character references.
_ATTR_ENTITIES = {
    "&quot;": '"',
    "&apos;": "'",
    "&#13;": "\r",
    "&#10;": "\n",
    "&#09;": "\t",
    "&#9;": "\t",
}


def escape_text(text: str) -> str:
    """Element text, escaped exactly as ``ElementTree`` escapes it."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def escape_attr(text: str) -> str:
    """A double-quoted attribute value, escaped exactly as
    ``ElementTree`` escapes it."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def unescape(text: str) -> str:
    """Inverse of :func:`escape_text`, :func:`escape_attr` and
    ``quoteattr``'s escaping."""
    if "&" not in text:
        return text
    return saxutils.unescape(text, _ATTR_ENTITIES)


def parse_attrs(attr_text: str) -> dict[str, str]:
    """Parse ``name="value"`` / ``name='value'`` pairs, unescaping values.

    The exact inverse of ``quoteattr`` serialization; shared by every
    wire format so hostile characters in targets or subject ids
    round-trip losslessly everywhere.
    """
    return {
        m.group(1): unescape(
            m.group(2) if m.group(2) is not None else m.group(3)
        )
        for m in re.finditer(r"(\w+)=(?:\"([^\"]*)\"|'([^']*)')", attr_text)
    }
