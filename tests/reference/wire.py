"""The SAML-XACML query profile as the README states it, read with
``xml.etree.ElementTree``: the semantics the query decoders are judged by.

A query message is one element and nothing else, parsed inside a holder
that binds the three prefixes the writers use (a text that rebinds one,
or sets a default namespace, renames what it covers).  Beyond what XML
itself refuses, the README's rules:

* no comment, processing instruction, CDATA section or declaration;
* the root has its tag and exactly its attribute set, and no text
  before, between or after its children;
* ``saml:Issuer`` comes first and holds text only;
* each query is exactly ``saml:Issuer`` + ``Request``;
* ``Count`` is ASCII digits and equals the queries found; a batch holds
  at least one;
* every number is read in a form the writers write (``wire_number``): a
  count or TTL is ASCII digits, an instant is finite and is the ``repr``
  of its float or of its integer;
* ``ReturnContext`` is an XML Schema boolean: ``true`` / ``1`` or
  ``false`` / ``0``.

Inside a ``Request`` the context format's own reading applies: each
``Attributes`` child names a known ``Category``, each ``Attribute`` in
it an ``AttributeId`` (an ``Issuer`` optional) and at least one
``AttributeValue``, each value a known ``DataType``, text only (no child
element) and a text that type reads; other children are not read.  An
integer, double, time or dateTime is read in XML Schema's lexical form
(``[+-]?[0-9]+``; decimal digits with an optional point and exponent,
or ``NaN``, ``INF``, ``-INF``), white space around it allowed.

Each reader returns a plain view (strings, ``repr`` of each instant, the
request's attributes per category) or raises ``ValueError``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

from repro.xacml.attributes import Attribute, AttributeValue, Category, DataType

PREFIXES = {
    "xacml-samlp": "urn:oasis:names:tc:xacml:2.0:profile:saml2.0:v2:schema:protocol",
    "saml": "urn:oasis:names:tc:SAML:2.0:assertion",
    "fed": "urn:repro:federation",
}
HOLDER = "<holder {}>".format(" ".join(f'xmlns:{p}="{u}"' for p, u in PREFIXES.items()))
QUERY = f"{{{PREFIXES['xacml-samlp']}}}XACMLAuthzDecisionQuery"
BATCH = f"{{{PREFIXES['xacml-samlp']}}}XACMLAuthzDecisionBatchQuery"
ISSUER = f"{{{PREFIXES['saml']}}}Issuer"
FORWARD = f"{{{PREFIXES['fed']}}}ForwardedBatchQuery"
CATEGORIES = {category.value: category for category in Category}
NUMBERS = {
    DataType.INTEGER: (re.compile(r"[+-]?[0-9]+"), int),
    **{
        data_type: (
            re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([Ee][+-]?[0-9]+)?|-?INF|NaN"),
            float,
        )
        for data_type in (DataType.DOUBLE, DataType.TIME, DataType.DATE_TIME)
    },
}


def require(condition) -> None:
    if not condition:
        raise ValueError("refused")


def envelope(text: str) -> ET.Element:
    require("<!" not in text and "<?" not in text)
    try:
        holder = ET.fromstring(f"{HOLDER}{text}</holder>")
    except ET.ParseError:
        raise ValueError("refused") from None
    require(holder.text is None and len(holder) == 1)
    return holder[0]


def exactly(element: ET.Element, tag: str, names: set[str]) -> dict[str, str]:
    require(element.tag == tag and set(element.attrib) == names)
    require(element.text is None and element.tail is None)
    return element.attrib


def count(text: str) -> int:
    require(text.isascii() and text.isdigit())
    return int(text)


def instant(text: str) -> str:
    value = float(text)
    require(math.isfinite(value) and text in (repr(value), repr(int(value))))
    return repr(value)


def boolean(text: str) -> bool:
    """XML Schema's boolean: ``true`` / ``1`` or ``false`` / ``0``."""
    require(text in ("true", "1", "false", "0"))
    return text in ("true", "1")


def issuer(element: ET.Element) -> str:
    require(element.tag == ISSUER and not element.attrib and not len(element))
    require(element.tail is None)
    return element.text or ""


def attribute_value(element: ET.Element) -> AttributeValue:
    require(not len(element))
    data_type, text = DataType.from_uri(element.get("DataType")), element.text or ""
    if data_type not in NUMBERS:
        return AttributeValue.parse(data_type, text)
    form, kind = NUMBERS[data_type]
    number = text.strip(" \t\n\r")
    require(form.fullmatch(number))
    return AttributeValue(data_type, kind(number))


def request(element: ET.Element) -> tuple:
    read = []
    for attributes in element.findall("Attributes"):
        category = CATEGORIES.get(attributes.get("Category"))
        require(category is not None)
        for attribute in attributes.findall("Attribute"):
            attribute_id = attribute.get("AttributeId")
            require(attribute_id is not None)
            values = tuple(map(attribute_value, attribute.findall("AttributeValue")))
            read.append((category, Attribute(attribute_id, values, attribute.get("Issuer"))))
    return tuple(tuple(a for c, a in read if c is category) for category in Category)


def query(element: ET.Element) -> tuple:
    attributes = exactly(element, QUERY, {"ID", "IssueInstant", "ReturnContext"})
    require(len(element) == 2 and element[1].tag == "Request" and element[1].tail is None)
    return (
        attributes["ID"],
        issuer(element[0]),
        instant(attributes["IssueInstant"]),
        boolean(attributes["ReturnContext"]),
        request(element[1]),
    )


def batch(element: ET.Element) -> tuple:
    attributes = exactly(element, BATCH, {"ID", "IssueInstant", "Count"})
    require(len(element) > 1)
    queries = tuple(map(query, element[1:]))
    require(len(queries) == count(attributes["Count"]))
    return attributes["ID"], issuer(element[0]), instant(attributes["IssueInstant"]), queries


def read_query(text: str) -> tuple:
    return query(envelope(text))


def read_batch(text: str) -> tuple:
    return batch(envelope(text))


def read_forward(text: str) -> tuple:
    """The federation's wrapper: one batch, no text beside it, the three
    headers present (others are not read) and a TTL of at least 1."""
    element = envelope(text)
    require(element.tag == FORWARD and len(element) == 1)
    require(element.text is None and element.tail is None)
    headers = element.attrib
    require({"OriginDomain", "OriginGateway", "TTL"} <= set(headers))
    ttl = count(headers["TTL"])
    require(ttl >= 1)
    return headers["OriginDomain"], headers["OriginGateway"], ttl, batch(element[0])
