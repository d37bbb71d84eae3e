"""XACML attribute model: categories, data types, values, bags, designators.

XACML describes every access request as attributes in four categories —
subject, resource, action and environment — and policies reference those
attributes through *designators* that resolve to *bags* of typed values.
This module implements that model closely following XACML 2.0.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional


class Category(enum.Enum):
    """The four XACML 2.0 attribute categories."""

    SUBJECT = "urn:oasis:names:tc:xacml:1.0:subject-category:access-subject"
    RESOURCE = "urn:oasis:names:tc:xacml:3.0:attribute-category:resource"
    ACTION = "urn:oasis:names:tc:xacml:3.0:attribute-category:action"
    ENVIRONMENT = "urn:oasis:names:tc:xacml:3.0:attribute-category:environment"
    #: Used by the Administration & Delegation profile (repro.admin.delegation).
    DELEGATE = "urn:oasis:names:tc:xacml:3.0:attribute-category:delegate"

    @property
    def short_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_short_name(cls, name: str) -> "Category":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown attribute category {name!r}") from None


class DataType(enum.Enum):
    """XML-Schema-derived data types supported by the engine."""

    STRING = "http://www.w3.org/2001/XMLSchema#string"
    BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
    INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
    DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
    TIME = "http://www.w3.org/2001/XMLSchema#time"
    DATE_TIME = "http://www.w3.org/2001/XMLSchema#dateTime"
    ANY_URI = "http://www.w3.org/2001/XMLSchema#anyURI"
    RFC822_NAME = "urn:oasis:names:tc:xacml:1.0:data-type:rfc822Name"
    X500_NAME = "urn:oasis:names:tc:xacml:1.0:data-type:x500Name"

    @classmethod
    def from_uri(cls, uri: str) -> "DataType":
        try:
            return _DATA_TYPE_BY_URI[uri]
        except KeyError:
            raise ValueError(f"unsupported data type URI {uri!r}") from None


_DATA_TYPE_BY_URI = {member.value: member for member in DataType}


#: XML Schema's lexical forms of an integer and of a double (ASCII
#: digits only; ``NaN``, ``INF`` and ``-INF`` spelled so), and the
#: white space its ``collapse`` facet lets surround them.
_INTEGER_FORM = re.compile(r"[+-]?[0-9]+")
_DOUBLE_FORM = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([Ee][+-]?[0-9]+)?|-?INF|NaN")
_XML_SPACE = " \t\n\r"
_NON_FINITE = {"nan": "NaN", "inf": "INF", "-inf": "-INF"}


_PYTHON_TYPES: dict[DataType, type | tuple[type, ...]] = {
    DataType.STRING: str,
    DataType.BOOLEAN: bool,
    DataType.INTEGER: int,
    DataType.DOUBLE: float,
    DataType.TIME: float,  # seconds since simulated midnight
    DataType.DATE_TIME: float,  # simulated epoch seconds
    DataType.ANY_URI: str,
    DataType.RFC822_NAME: str,
    DataType.X500_NAME: str,
}


@dataclass(frozen=True, slots=True)
class AttributeValue:
    """A single typed value, the atom of XACML evaluation.

    Slotted (no ``__dict__``): values are held by every live request
    and every cached statement, so what one costs is paid per request.
    """

    data_type: DataType
    value: Any

    def __post_init__(self) -> None:
        expected = _PYTHON_TYPES[self.data_type]
        if self.data_type is DataType.DOUBLE and isinstance(self.value, int):
            object.__setattr__(self, "value", float(self.value))
            return
        if self.data_type is DataType.INTEGER and isinstance(self.value, bool):
            raise TypeError("boolean is not a valid xacml integer")
        if not isinstance(self.value, expected):
            raise TypeError(
                f"value {self.value!r} is not valid for {self.data_type.name} "
                f"(expected {expected})"
            )

    def lexical(self) -> str:
        """The XML lexical form used by the serializer: a form
        :meth:`parse` reads back to this value."""
        if self.data_type is DataType.BOOLEAN:
            return "true" if self.value else "false"
        value = self.value
        if type(value) is float and not math.isfinite(value):
            return _NON_FINITE[str(value)]
        return str(value)

    @classmethod
    def parse(cls, data_type: DataType, text: str) -> "AttributeValue":
        """Inverse of :meth:`lexical`.  Integers and doubles (times too)
        are read in XML Schema's forms only: ``int()`` and ``float()``
        also read ``1_0``, non-ASCII digits, ``nan`` and ``inf``."""
        if data_type is DataType.BOOLEAN:
            lowered = text.strip().lower()
            if lowered not in ("true", "false", "1", "0"):
                raise ValueError(f"bad boolean lexical value {text!r}")
            return cls(data_type, lowered in ("true", "1"))
        if data_type is DataType.INTEGER:
            number = text.strip(_XML_SPACE)
            if _INTEGER_FORM.fullmatch(number) is None:
                raise ValueError(f"bad integer lexical value {text!r}")
            return cls(data_type, int(number))
        if data_type in (DataType.DOUBLE, DataType.TIME, DataType.DATE_TIME):
            number = text.strip(_XML_SPACE)
            if _DOUBLE_FORM.fullmatch(number) is None:
                raise ValueError(f"bad double lexical value {text!r}")
            return cls(data_type, float(number))
        return cls(data_type, text)


def string(value: str) -> AttributeValue:
    """Shorthand constructor for the most common value type."""
    return AttributeValue(DataType.STRING, value)


def integer(value: int) -> AttributeValue:
    return AttributeValue(DataType.INTEGER, value)


def double(value: float) -> AttributeValue:
    return AttributeValue(DataType.DOUBLE, float(value))


_TRUE = AttributeValue(DataType.BOOLEAN, True)
_FALSE = AttributeValue(DataType.BOOLEAN, False)


def boolean(value: bool) -> AttributeValue:
    """One of two shared constants (values are immutable and compare
    by content, so every function result can be the same object)."""
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    return AttributeValue(DataType.BOOLEAN, value)  # raises TypeError


class Bag:
    """An unordered collection of same-typed attribute values.

    Designators always resolve to bags (possibly empty); most functions
    operate on single values obtained via ``one-and-only``.
    """

    def __init__(self, values: Iterable[AttributeValue] = ()) -> None:
        self._values: tuple[AttributeValue, ...] = tuple(values)
        if self._values:
            first = self._values[0].data_type
            for value in self._values:
                if value.data_type is not first:
                    mixed = {v.data_type.name for v in self._values}
                    raise TypeError(f"bag mixes data types: {sorted(mixed)}")

    @property
    def values(self) -> tuple[AttributeValue, ...]:
        return self._values

    def __iter__(self) -> Iterator[AttributeValue]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, item: AttributeValue) -> bool:
        return item in self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return sorted(v.lexical() for v in self) == sorted(
            v.lexical() for v in other
        )

    def __repr__(self) -> str:
        inner = ", ".join(v.lexical() for v in self._values[:4])
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"Bag([{inner}{suffix}])"

    def is_empty(self) -> bool:
        return not self._values


EMPTY_BAG = Bag()


# Well-known attribute identifiers used throughout the repo.
SUBJECT_ID = "urn:oasis:names:tc:xacml:1.0:subject:subject-id"
SUBJECT_ROLE = "urn:oasis:names:tc:xacml:2.0:subject:role"
SUBJECT_DOMAIN = "urn:repro:subject:home-domain"
SUBJECT_CLEARANCE = "urn:repro:subject:clearance"
RESOURCE_ID = "urn:oasis:names:tc:xacml:1.0:resource:resource-id"
RESOURCE_OWNER = "urn:repro:resource:owner"
RESOURCE_DOMAIN = "urn:repro:resource:domain"
RESOURCE_CLASSIFICATION = "urn:repro:resource:classification"
RESOURCE_CONFLICT_CLASS = "urn:repro:resource:conflict-of-interest-class"
ACTION_ID = "urn:oasis:names:tc:xacml:1.0:action:action-id"
ENVIRONMENT_TIME = "urn:oasis:names:tc:xacml:1.0:environment:current-time"
ENVIRONMENT_DATE_TIME = "urn:oasis:names:tc:xacml:1.0:environment:current-dateTime"
DELEGATE_ID = "urn:repro:delegate:delegate-id"


@dataclass(frozen=True, slots=True)
class Attribute:
    """A named attribute: id, issuer and one or more typed values.

    Slotted for the same reason as :class:`AttributeValue`.  "One or
    more" is checked here, for every way of building one: the wire has
    no form for an attribute without values (every decoder refuses
    one), and an empty bag and an absent attribute read alike, so a
    caller with nothing to say leaves the attribute out.
    """

    attribute_id: str
    values: tuple[AttributeValue, ...]
    issuer: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.attribute_id!r} has no values")

    @classmethod
    def of(
        cls, attribute_id: str, *values: AttributeValue, issuer: Optional[str] = None
    ) -> "Attribute":
        return cls(attribute_id=attribute_id, values=values, issuer=issuer)

    @property
    def data_type(self) -> DataType:
        return self.values[0].data_type


@dataclass(frozen=True, slots=True)
class AttributeDesignator:
    """A reference to attribute values in a request category.

    When evaluated it resolves to the bag of matching values; an empty bag
    plus ``must_be_present=True`` yields Indeterminate (missing-attribute),
    which is the hook PIP-based attribute retrieval plugs into.

    ``bag_key`` names the bag the designator reads — category, attribute
    id, data type and issuer, everything but ``must_be_present`` — and
    is what :class:`~repro.xacml.expressions.EvaluationContext` keys
    its per-decision bag table on.  It is one interned string, so equal
    designators share one object and a table probe hashes nothing anew
    (enum members hash through a Python-level ``__hash__``, tuples
    re-hash their items on every probe); ``repr`` of the two free-form
    parts keeps distinct designators on distinct keys whatever
    characters an identifier holds.
    """

    category: Category
    attribute_id: str
    data_type: DataType
    must_be_present: bool = False
    issuer: Optional[str] = None
    bag_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "bag_key",
            sys.intern(
                f"{self.category.name}|{self.data_type.name}|"
                f"{self.attribute_id!r}|{self.issuer!r}"
            ),
        )

    def describe(self) -> str:
        return f"{self.category.short_name}:{self.attribute_id}"


#: Distinct leaves each policy-side constructor memo remembers
#: (:func:`_designator_of` here, ``_match_of`` / ``_single_of`` in
#: :mod:`~repro.xacml.targets`, ``_condition_of`` in
#: :mod:`~repro.xacml.expressions`).  A mined corpus repeats its
#: resource, action and role leaves by construction (20,000 policies:
#: 2,003 matches, 6 conditions, 3 designators); a corpus with more
#: distinct leaves than this shares nothing and retains at most this
#: many leaves per memo after it is gone.
LEAF_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=LEAF_MEMO_SIZE)
def _designator_of(
    category: Category,
    attribute_id: str,
    data_type: DataType,
    must_be_present: bool,
    issuer: Optional[str],
) -> AttributeDesignator:
    """The designator these five parts spell; equal parts share one object.

    The contract of the leaf memos, stated once.  Policies say the same
    few things over and over — the same resource, action and role
    leaves in thousands of rules — so what the builders
    (``match_equal``, ``target_of``, ``attribute_equals``,
    ``designator``) and the policy parser construct for equal parts is
    one frozen object, and a policy costs what it says.  The form is
    :func:`repro.xacml.parser.parse_response`'s: an ``lru_cache`` with
    a constant bound on a *pure* function of immutable arguments
    returning a frozen value of frozen parts, so sharing is
    unobservable but by ``is``; *exceptions are never remembered* and
    ``__post_init__`` runs in full the first time a leaf is seen;
    nothing is minted, so two worlds in one process cannot perturb each
    other through it.  A key separates everything the serializer
    writes: a literal goes in as data type plus lexical form, never as
    an :class:`AttributeValue`, whose equality is coarser
    (``double(0.0) == double(-0.0)``, equal hashes, different
    ``lexical()``).

    Requests repeat themselves too: every request of the four perf
    workloads carries a resource and an action leaf some earlier
    request carried, and Zipf subjects repeat.  So request attributes
    are shared through :func:`_attribute_of`, whose key is strings only
    (data-type URI and text per value: no ``1 == True`` collision
    either), under a bound of its own.  Unique subjects pass through it
    without a hit, so a larger bound only holds more of them: peak RSS
    at seed 21 with the bound at 256 / 1,024 / 4,096 is 57.4 / 57.9 /
    59.0 MiB on ``gateway_plain``, 43.2 / 43.4 / 44.5 on
    ``secure_sync`` and 65.4 / 65.1 / 65.1 on ``federated_cached``
    (Intel Xeon, CPython 3.11).  Whatever carries an id (``Rule``,
    ``Policy``) stays unshared.  Worst case retained:
    :data:`LEAF_MEMO_SIZE` leaves per policy-side memo (17 MiB with all
    four full of distinct attribute ids and literals) plus
    :data:`REQUEST_LEAF_MEMO_SIZE` request attributes.
    """
    return AttributeDesignator(
        category, attribute_id, data_type, must_be_present, issuer
    )


#: Distinct request attributes :func:`_attribute_of` remembers.  Small
#: on purpose: what repeats (resources, actions, hot subjects) stays
#: in it by recency, and a subject seen once only occupies a slot.
REQUEST_LEAF_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=REQUEST_LEAF_MEMO_SIZE)
def _attribute_of(
    attribute_id: str, issuer: Optional[str], values: tuple[tuple[str, str], ...]
) -> Attribute:
    """The request attribute these parts spell, each value given as
    data-type URI plus lexical text; equal parts share one object
    (:func:`_designator_of` has the contract).  What
    :meth:`~repro.xacml.context.RequestContext.simple` builds and what
    :mod:`~repro.xacml.parser` decodes off the wire come from here, so
    a request held anywhere points at leaves other requests hold.
    Raises ``ValueError`` for an unknown data type, a text its type
    cannot read, or no values at all."""
    return Attribute(
        attribute_id,
        tuple(
            AttributeValue.parse(DataType.from_uri(uri), text) for uri, text in values
        ),
        issuer,
    )
