"""XACML request/response context: the decision request/response protocol.

The second half of what XACML standardises (besides the policy language)
is "an access control decision request/response protocol" — the messages
a PEP exchanges with a PDP.  :class:`RequestContext` and
:class:`ResponseContext` are those messages; the XML forms live in
:mod:`repro.xacml.serializer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from .attributes import (
    ACTION_ID,
    Attribute,
    AttributeValue,
    Bag,
    Category,
    DataType,
    RESOURCE_ID,
    SUBJECT_ID,
    _attribute_of,
)

_STRING: str = DataType.STRING.value


class Decision(enum.Enum):
    """The four XACML decisions."""

    PERMIT = "Permit"
    DENY = "Deny"
    NOT_APPLICABLE = "NotApplicable"
    INDETERMINATE = "Indeterminate"

    @property
    def is_definitive(self) -> bool:
        return self in (Decision.PERMIT, Decision.DENY)


class StatusCode(enum.Enum):
    """Standard XACML status codes carried in responses."""

    OK = "urn:oasis:names:tc:xacml:1.0:status:ok"
    MISSING_ATTRIBUTE = "urn:oasis:names:tc:xacml:1.0:status:missing-attribute"
    SYNTAX_ERROR = "urn:oasis:names:tc:xacml:1.0:status:syntax-error"
    PROCESSING_ERROR = "urn:oasis:names:tc:xacml:1.0:status:processing-error"


@dataclass(frozen=True)
class Status:
    code: StatusCode = StatusCode.OK
    message: str = ""

    @property
    def is_ok(self) -> bool:
        return self.code is StatusCode.OK


OK_STATUS = Status()


@dataclass(frozen=True)
class ObligationAssignment:
    """One attribute assignment inside an obligation."""

    attribute_id: str
    value: AttributeValue


@dataclass(frozen=True)
class Obligation:
    """An action the PEP must perform when enforcing the decision.

    ``fulfill_on`` names the decision (Permit or Deny) to which this
    obligation attaches; a PEP that does not understand an obligation it
    receives MUST deny access (XACML §7.14), which
    :class:`repro.components.pep.PolicyEnforcementPoint` honours.
    """

    obligation_id: str
    fulfill_on: Decision
    assignments: tuple[ObligationAssignment, ...] = ()

    def __post_init__(self) -> None:
        if self.fulfill_on not in (Decision.PERMIT, Decision.DENY):
            raise ValueError(
                "obligations attach to Permit or Deny, "
                f"not {self.fulfill_on.value}"
            )

    def assignment(self, attribute_id: str) -> Optional[AttributeValue]:
        for item in self.assignments:
            if item.attribute_id == attribute_id:
                return item.value
        return None


#: One attribute value as :meth:`RequestContext.cache_key` records it:
#: category URI, attribute id, lexical value, data type URI, issuer tag.
KeyPart = tuple[str, str, str, str, str]


class RequestContext:
    """An access request: attributes grouped by category.

    Build either directly from :class:`Attribute` lists or via
    :meth:`simple`, the common subject/resource/action shorthand.

    **Layout and cost model.**  A request is one insertion-ordered list
    of ``(category, attribute)`` pairs under ``__slots__`` — no
    ``__dict__``, no per-category containers, nothing built for a
    category the request does not use.  A request of *n* attributes
    owns *n* + 1 objects (the list and one pair each); the
    :class:`Attribute` values are shared leaves wherever they came from
    :meth:`simple` or the wire (:func:`~repro.xacml.attributes.
    _attribute_of`), so every held request that reads ``res-7`` points
    at one ``res-7``.  Every read is a scan of those *n* pairs (three or
    four on the wire) that tells categories apart with ``is`` —
    ``Category`` members are singletons, and hashing one goes through
    ``Enum.__hash__``, a Python-level call.  Requests are the most
    numerous live objects wherever decisions are cached or in flight,
    so anything added here is paid per request: a side index by
    ``(category, id)`` measured +17 MiB on ``gateway_plain`` (ROADMAP
    direction 3), and ``tests/xacml/test_context_oracle.py`` pins the
    shape.  Per-category order is insertion order, which is all the
    serializer reads.

    **Identity.**  :meth:`cache_key` is what every decision-cache tier
    and every in-flight dedup table keys a request by; see there for
    what it covers.  It is deliberately *not* stored on the request:
    each tier asks once (``fabric.Slot.key`` carries the answer from
    then on), and where caches are off a request outlives any use of
    its key.
    """

    __slots__ = ("_entries",)

    def __init__(
        self, attributes: Optional[dict[Category, list[Attribute]]] = None
    ) -> None:
        self._entries: list[tuple[Category, Attribute]] = []
        if attributes:
            for category, attrs in attributes.items():
                self._entries.extend((category, attribute) for attribute in attrs)

    @classmethod
    def simple(
        cls,
        subject_id: str,
        resource_id: str,
        action_id: str,
        subject_attributes: Optional[dict[str, Iterable[AttributeValue]]] = None,
        resource_attributes: Optional[dict[str, Iterable[AttributeValue]]] = None,
        environment: Optional[dict[str, Iterable[AttributeValue]]] = None,
    ) -> "RequestContext":
        """Build the canonical {subject, resource, action} request.

        The three ids are shared leaves (:func:`~repro.xacml.attributes.
        _attribute_of`); an extra attribute given no values is left out,
        which is how the request reads it anyway (an empty bag)."""
        request = cls()
        entries = request._entries = [
            (Category.SUBJECT, _attribute_of(SUBJECT_ID, None, ((_STRING, subject_id),))),
            (Category.RESOURCE, _attribute_of(RESOURCE_ID, None, ((_STRING, resource_id),))),
            (Category.ACTION, _attribute_of(ACTION_ID, None, ((_STRING, action_id),))),
        ]
        for category, extra in (
            (Category.SUBJECT, subject_attributes),
            (Category.RESOURCE, resource_attributes),
            (Category.ENVIRONMENT, environment),
        ):
            for attr_id, values in (extra or {}).items():
                held = tuple(values)
                if held:
                    entries.append((category, Attribute(attr_id, held)))
        return request

    def add(self, category: Category, attribute: Attribute) -> None:
        self._entries.append((category, attribute))

    def attributes(self, category: Category) -> list[Attribute]:
        return [attribute for held, attribute in self._entries if held is category]

    def bag(
        self,
        category: Category,
        attribute_id: str,
        data_type: DataType,
        issuer: Optional[str] = None,
    ) -> Bag:
        """Resolve a designator against this request's attributes."""
        collected: list[AttributeValue] = []
        for held, attribute in self._entries:
            if held is not category or attribute.attribute_id != attribute_id:
                continue
            if issuer is not None and attribute.issuer != issuer:
                continue
            collected.extend(
                v for v in attribute.values if v.data_type is data_type
            )
        return Bag(collected)

    def values(
        self, category: Category, attribute_id: str
    ) -> list[AttributeValue]:
        """Every value the request carries for one attribute id, of any
        data type and across repeated attributes (the whole bag)."""
        return [
            value
            for held, attribute in self._entries
            if held is category and attribute.attribute_id == attribute_id
            for value in attribute.values
        ]

    def first_value(
        self, category: Category, attribute_id: str
    ) -> Optional[AttributeValue]:
        for held, attribute in self._entries:
            if held is category and attribute.attribute_id == attribute_id:
                return attribute.values[0]
        return None

    @property
    def subject_id(self) -> Optional[str]:
        value = self.first_value(Category.SUBJECT, SUBJECT_ID)
        return None if value is None else str(value.value)

    @property
    def resource_id(self) -> Optional[str]:
        value = self.first_value(Category.RESOURCE, RESOURCE_ID)
        return None if value is None else str(value.value)

    @property
    def action_id(self) -> Optional[str]:
        value = self.first_value(Category.ACTION, ACTION_ID)
        return None if value is None else str(value.value)

    def cache_key(self) -> tuple[KeyPart, ...]:
        """The request's identity for decision caching and dedup (E6).

        One part per attribute value, sorted: ``(category URI, attribute
        id, lexical value, data type URI, issuer tag)`` — everything the
        engine can tell two attributes apart by (a designator filters on
        data type and, when it names one, on issuer), so two requests
        share a key only if no policy can decide them differently.  The
        issuer tag is ``""`` for no issuer and ``"=" + issuer``
        otherwise, which keeps ``None`` apart from ``""`` and the parts
        sortable.  Attribute order and how values are grouped into
        attributes do not matter; repeated values do.

        ``ENVIRONMENT`` attributes are left out: they change per request
        (the current time) and would defeat caching; the staleness this
        admits is exactly what experiment E6 measures.

        The key is computed in one walk and one sort and not kept (see
        the class docstring).
        """
        parts = []
        for category, attribute in self._entries:
            if category is Category.ENVIRONMENT:
                continue
            issuer = attribute.issuer
            issuer_tag = "" if issuer is None else "=" + issuer
            for value in attribute.values:
                parts.append(
                    (
                        category._value_,
                        attribute.attribute_id,
                        value.lexical(),
                        value.data_type._value_,
                        issuer_tag,
                    )
                )
        parts.sort()
        return tuple(parts)

    def __repr__(self) -> str:
        return (
            f"RequestContext(subject={self.subject_id!r}, "
            f"resource={self.resource_id!r}, action={self.action_id!r})"
        )


_SUBJECT_URI: str = Category.SUBJECT.value
_RESOURCE_URI: str = Category.RESOURCE.value


def cache_key_touches(
    key: tuple[KeyPart, ...],
    subject_id: Optional[str] = None,
    resource_id: Optional[str] = None,
) -> bool:
    """Does a :meth:`RequestContext.cache_key` involve a subject/resource?

    The selective-invalidation predicate every decision-cache tier
    (PEP caches, the gateway-tier remote-decision cache) applies when a
    revocation names a subject and/or resource: entries matching
    *either* filter are coherence victims.  With neither filter given
    nothing matches (the caller should flush instead).  Only category,
    id and lexical value are compared, so every typed or issued variant
    of the id is a victim: a revocation may drop more than it must,
    never less.
    """
    for part in key:
        lexical = part[2]
        if (
            lexical == subject_id
            and part[1] == SUBJECT_ID
            and part[0] == _SUBJECT_URI
        ) or (
            lexical == resource_id
            and part[1] == RESOURCE_ID
            and part[0] == _RESOURCE_URI
        ):
            return True
    return False


@dataclass(frozen=True)
class Result:
    """One result inside a response context."""

    decision: Decision
    status: Status = OK_STATUS
    obligations: tuple[Obligation, ...] = ()
    resource_id: Optional[str] = None


@dataclass(frozen=True)
class ResponseContext:
    """The PDP's answer to a request context."""

    results: tuple[Result, ...]

    @classmethod
    def single(
        cls,
        decision: Decision,
        status: Status = OK_STATUS,
        obligations: Iterable[Obligation] = (),
        resource_id: Optional[str] = None,
    ) -> "ResponseContext":
        return cls(
            results=(
                Result(
                    decision=decision,
                    status=status,
                    obligations=tuple(obligations),
                    resource_id=resource_id,
                ),
            )
        )

    @property
    def result(self) -> Result:
        if len(self.results) != 1:
            raise ValueError(f"response has {len(self.results)} results, expected 1")
        return self.results[0]

    @property
    def decision(self) -> Decision:
        return self.result.decision
