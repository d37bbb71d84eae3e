"""Policy Information Point: attribute retrieval for decision making.

"PIPs are used to provide information that can be used during evaluation
of access requests.  They may gather attributes related to subjects,
objects and the environment" (paper §2.2).  The PIP here is a
network-attached attribute store: PDPs query it for attributes that the
request context did not carry, paying a real (simulated) round-trip —
the cost that makes attribute push-vs-pull trade-offs measurable.
"""

from __future__ import annotations

import re
from typing import Callable, Optional
from xml.sax.saxutils import escape, quoteattr, unescape

from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.attributes import AttributeValue, Category, DataType
from ..xmlutil import parse_attrs
from .base import Component, ComponentIdentity

EnvironmentProvider = Callable[[float], list[AttributeValue]]


class AttributeStore:
    """In-memory attribute database backing a PIP.

    Subject and resource attributes are keyed by entity id; environment
    attributes come from registered providers evaluated at query time
    (e.g. current-time from the simulated clock).
    """

    def __init__(self) -> None:
        self._subject: dict[str, dict[str, list[AttributeValue]]] = {}
        self._resource: dict[str, dict[str, list[AttributeValue]]] = {}
        self._environment: dict[str, EnvironmentProvider] = {}

    def set_subject_attribute(
        self, subject_id: str, attribute_id: str, values: list[AttributeValue]
    ) -> None:
        self._subject.setdefault(subject_id, {})[attribute_id] = list(values)

    def add_subject_value(
        self, subject_id: str, attribute_id: str, value: AttributeValue
    ) -> None:
        self._subject.setdefault(subject_id, {}).setdefault(attribute_id, []).append(
            value
        )

    def set_resource_attribute(
        self, resource_id: str, attribute_id: str, values: list[AttributeValue]
    ) -> None:
        self._resource.setdefault(resource_id, {})[attribute_id] = list(values)

    def lookup(
        self,
        category: Category,
        attribute_id: str,
        about: str,
        data_type: DataType,
        at: float,
    ) -> list[AttributeValue]:
        if category is Category.SUBJECT:
            values = self._subject.get(about, {}).get(attribute_id, [])
        elif category is Category.RESOURCE:
            values = self._resource.get(about, {}).get(attribute_id, [])
        elif category is Category.ENVIRONMENT:
            provider = self._environment.get(attribute_id)
            values = provider(at) if provider else []
        else:
            values = []
        return [v for v in values if v.data_type is data_type]

    def subjects(self) -> list[str]:
        return list(self._subject)

    def resources(self) -> list[str]:
        return list(self._resource)


def serialize_pip_query(
    category: Category, attribute_id: str, about: str, data_type: DataType
) -> str:
    # ``quoteattr`` rather than bare interpolation: ``about`` carries
    # subject/resource ids straight from requests, and a quote in one
    # must not be able to break (or smuggle attributes into) the query.
    return (
        f"<PipQuery category={quoteattr(category.short_name)} "
        f"attributeId={quoteattr(attribute_id)} "
        f"about={quoteattr(about)} dataType={quoteattr(data_type.value)}/>"
    )


def parse_pip_query(xml_text: str) -> tuple[Category, str, str, DataType]:
    match = re.match(r"<PipQuery ([^>]*)/>$", xml_text)
    if match is None:
        raise ValueError(f"bad PIP query: {xml_text[:80]!r}")
    attrs = parse_attrs(match.group(1))
    missing = {"category", "attributeId", "about", "dataType"} - set(attrs)
    if missing:
        raise ValueError(f"bad PIP query, missing {sorted(missing)}")
    return (
        Category.from_short_name(attrs["category"]),
        attrs["attributeId"],
        attrs["about"],
        DataType.from_uri(attrs["dataType"]),
    )


def serialize_pip_response(values: list[AttributeValue]) -> str:
    inner = "".join(
        f'<AttributeValue DataType="{v.data_type.value}">{escape(v.lexical())}'
        f"</AttributeValue>"
        for v in values
    )
    return f"<PipResponse>{inner}</PipResponse>"


def parse_pip_response(xml_text: str) -> list[AttributeValue]:
    values = []
    for match in re.finditer(
        r'<AttributeValue DataType="([^"]*)">([^<]*)</AttributeValue>', xml_text
    ):
        data_type = DataType.from_uri(match.group(1))
        values.append(AttributeValue.parse(data_type, unescape(match.group(2))))
    return values


class PolicyInformationPoint(Component):
    """Network-attached PIP answering attribute queries."""

    def __init__(
        self,
        name: str,
        network: Network,
        store: Optional[AttributeStore] = None,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.store = store if store is not None else AttributeStore()
        self.queries_served = 0
        self.on("pip.query", self._handle_query)

    def _handle_query(self, message: Message) -> str:
        category, attribute_id, about, data_type = parse_pip_query(
            str(message.payload)
        )
        self.queries_served += 1
        values = self.store.lookup(category, attribute_id, about, data_type, self.now)
        return serialize_pip_response(values)
