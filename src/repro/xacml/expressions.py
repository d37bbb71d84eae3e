"""Expression evaluation: Apply trees, designators and conditions.

A rule's ``Condition`` is an arbitrary expression tree that must evaluate
to a single boolean.  Evaluation happens against an
:class:`EvaluationContext`, which wraps the request, the simulated clock
and the PIP attribute-resolution hook; failures surface as
:class:`Indeterminate`, carrying the XACML status code that ends up in the
response.

The contract of this module:

* **One fetch per designator per decision.**  XACML's attribute-retrieval
  rule (3.0 §7.3.5, the same sentence in 2.0) says "the PDP SHALL behave
  as if each bag of attribute values is fully populated in the context
  before it is first tested, and is thereafter immutable during
  evaluation".  :meth:`EvaluationContext.resolve` therefore fetches a
  designator's bag — request first, then the finder — the first time
  anything touches it and answers every later touch in the same
  decision from a table keyed by category, attribute id, data type and
  issuer, empty answers included.  A decision is computed from one
  snapshot of its attributes even when the finder is a PIP across the
  wire whose store changes mid-evaluation, and the PIP is asked once
  per designator, not once per rule.  ``must_be_present`` is judged
  against the remembered bag on every touch.
* **Bound when built.**  :class:`Apply`, :class:`AnyOfFunction` and
  :class:`AllOfFunction` look their function up in the registry once, at
  construction (the registry refuses to overwrite, so the binding cannot
  go stale); an id unknown then is looked up again at evaluation.
* **Unknown function => Indeterminate.**  An id the registry still does
  not know at evaluation is a ``processing-error`` Indeterminate naming
  the id, like any other function failure — a deployed policy must not
  be able to take the PDP down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Protocol, Union

from . import functions
from .attributes import (
    AttributeDesignator,
    AttributeValue,
    Bag,
    Category,
    DataType,
    LEAF_MEMO_SIZE,
    _designator_of,
    boolean,
)
from .context import RequestContext, Status, StatusCode


_TRUE = boolean(True)
_FALSE = boolean(False)


class Indeterminate(Exception):
    """Evaluation could not complete; maps to the Indeterminate decision."""

    def __init__(
        self, message: str, code: StatusCode = StatusCode.PROCESSING_ERROR
    ) -> None:
        super().__init__(message)
        self.status = Status(code=code, message=message)


class AttributeFinder(Protocol):
    """PIP hook: resolve attributes absent from the request context.

    Returns a list of values (possibly empty).  The PDP wires this to its
    configured Policy Information Points; a bare engine uses none.
    """

    def __call__(
        self, category: Category, attribute_id: str, data_type: DataType
    ) -> list[AttributeValue]: ...


@dataclass
class EvaluationContext:
    """Everything an expression may consult during evaluation."""

    request: RequestContext
    current_time: float = 0.0
    attribute_finder: Optional[AttributeFinder] = None
    #: Attributes pulled in via the finder, recorded for the E4 data-flow
    #: trace and for audit.
    resolved_attributes: list[tuple[Category, str]] = field(default_factory=list)
    #: Number of finder invocations (PIP round-trips in the simulation).
    finder_calls: int = 0
    #: Resolver for PolicyIdReference children (wired to the engine's
    #: policy store); ``None`` makes references evaluate Indeterminate.
    reference_resolver: Optional[Callable[[str], Any]] = None
    #: Reference ids currently being resolved (cycle guard).
    _reference_stack: set = field(default_factory=set)
    #: ``AttributeDesignator.bag_key`` -> the bag fetched for it; a bag,
    #: empty or not, is fetched once and then immutable for the decision.
    _bags: dict[str, Bag] = field(default_factory=dict)

    def resolve(self, designator: AttributeDesignator) -> Bag:
        """The designator's bag: fetched on first touch (request first,
        then the PIP finder), remembered for the rest of the decision."""
        bag = self._bags.get(designator.bag_key)
        if bag is None:
            bag = self._bags[designator.bag_key] = self._fetch(designator)
        if designator.must_be_present and bag.is_empty():
            raise Indeterminate(
                f"missing required attribute {designator.describe()}",
                code=StatusCode.MISSING_ATTRIBUTE,
            )
        return bag

    def _fetch(self, designator: AttributeDesignator) -> Bag:
        bag = self.request.bag(
            designator.category,
            designator.attribute_id,
            designator.data_type,
            designator.issuer,
        )
        if bag.is_empty() and self.attribute_finder is not None:
            self.finder_calls += 1
            values = self.attribute_finder(
                designator.category, designator.attribute_id, designator.data_type
            )
            if values:
                self.resolved_attributes.append(
                    (designator.category, designator.attribute_id)
                )
                bag = Bag(values)
        return bag


def _late_lookup(function_id: str) -> functions.Function:
    """Evaluation-time lookup of an id that was unknown at construction."""
    try:
        return functions.lookup(function_id)
    except functions.FunctionError as exc:
        raise Indeterminate(str(exc)) from exc


class Expression:
    """Base class for the expression tree."""

    __slots__ = ()

    def evaluate(self, ctx: EvaluationContext) -> Union[AttributeValue, Bag]:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    """A constant attribute value."""

    value: AttributeValue

    def evaluate(self, ctx: EvaluationContext) -> AttributeValue:
        return self.value


@dataclass(frozen=True, slots=True)
class Designator(Expression):
    """An attribute designator as an expression node (yields a bag)."""

    designator: AttributeDesignator

    def evaluate(self, ctx: EvaluationContext) -> Bag:
        return ctx.resolve(self.designator)


@dataclass(frozen=True, slots=True)
class _FunctionNode(Expression):
    """A node that names a registry function, bound when the node is built."""

    function_id: str
    _function: Optional[functions.Function] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_function", functions.find(self.function_id))

    def __reduce__(self) -> tuple[Any, ...]:
        # The bound function is a registry closure, which does not
        # pickle: a copy is rebuilt from the id and binds its own.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, slots=True)
class Apply(_FunctionNode):
    """Application of a registered function to argument expressions."""

    arguments: tuple[Expression, ...]

    def evaluate(self, ctx: EvaluationContext) -> Union[AttributeValue, Bag]:
        func = self._function or _late_lookup(self.function_id)
        args: list[Union[AttributeValue, Bag]] = []
        for argument in self.arguments:
            # The two leaves are read in place (exactly these classes:
            # a subclass may override ``evaluate``).
            kind = type(argument)
            if kind is Literal:
                args.append(argument.value)  # type: ignore[attr-defined]
            elif kind is Designator:
                args.append(ctx.resolve(argument.designator))  # type: ignore[attr-defined]
            else:
                args.append(argument.evaluate(ctx))
        try:
            return func(*args)
        except functions.FunctionError as exc:
            raise Indeterminate(
                f"error applying {self.function_id}: {exc}"
            ) from exc


# Higher-order functions need access to unevaluated function references, so
# they are modelled as dedicated expression nodes rather than registry
# entries.


@dataclass(frozen=True, slots=True)
class AnyOfFunction(_FunctionNode):
    """XACML ``any-of``: apply f(value, element) over a bag, OR results."""

    value: Expression
    bag: Expression
    def evaluate(self, ctx: EvaluationContext) -> AttributeValue:
        func = self._function or _late_lookup(self.function_id)
        value = self.value.evaluate(ctx)
        bag = self.bag.evaluate(ctx)
        if not isinstance(bag, Bag):
            raise Indeterminate("any-of: second argument must be a bag")
        for element in bag:
            try:
                result = func(value, element)
            except functions.FunctionError as exc:
                raise Indeterminate(f"any-of: {exc}") from exc
            if isinstance(result, AttributeValue) and result.value is True:
                return boolean(True)
        return boolean(False)


@dataclass(frozen=True, slots=True)
class AllOfFunction(_FunctionNode):
    """XACML ``all-of``: apply f(value, element) over a bag, AND results."""

    value: Expression
    bag: Expression
    def evaluate(self, ctx: EvaluationContext) -> AttributeValue:
        func = self._function or _late_lookup(self.function_id)
        value = self.value.evaluate(ctx)
        bag = self.bag.evaluate(ctx)
        if not isinstance(bag, Bag):
            raise Indeterminate("all-of: second argument must be a bag")
        for element in bag:
            try:
                result = func(value, element)
            except functions.FunctionError as exc:
                raise Indeterminate(f"all-of: {exc}") from exc
            if not (isinstance(result, AttributeValue) and result.value is True):
                return boolean(False)
        return boolean(True)


@dataclass(frozen=True, slots=True)
class Condition:
    """A rule condition: an expression that must yield a single boolean."""

    expression: Expression

    def evaluate(self, ctx: EvaluationContext) -> bool:
        result = self.expression.evaluate(ctx)
        # What every boolean function returns: the two shared constants.
        if result is _TRUE:
            return True
        if result is _FALSE:
            return False
        if isinstance(result, Bag):
            raise Indeterminate("condition evaluated to a bag, expected boolean")
        if result.data_type is not DataType.BOOLEAN:
            raise Indeterminate(
                f"condition evaluated to {result.data_type.name}, expected boolean"
            )
        return bool(result.value)


# -- convenience builders -----------------------------------------------------


def literal(value: AttributeValue) -> Literal:
    return Literal(value)


def designator(
    category: Category,
    attribute_id: str,
    data_type: DataType = DataType.STRING,
    must_be_present: bool = False,
) -> Designator:
    return Designator(
        _designator_of(category, attribute_id, data_type, must_be_present, None)
    )


def apply_(function_id: str, *arguments: Expression) -> Apply:
    return Apply(function_id=function_id, arguments=tuple(arguments))


@functools.lru_cache(maxsize=LEAF_MEMO_SIZE)
def _condition_of(
    function_id: str,
    data_type: DataType,
    lexical: str,
    designator: AttributeDesignator,
) -> Condition:
    """The condition ``function(literal, designated bag)``, its literal
    given as data type plus lexical form; equal parts share one object
    (:func:`~repro.xacml.attributes._designator_of` has the contract)."""
    return Condition(
        apply_(
            function_id,
            literal(AttributeValue.parse(data_type, lexical)),
            Designator(designator),
        )
    )


def attribute_equals(
    category: Category,
    attribute_id: str,
    value: AttributeValue,
    must_be_present: bool = False,
) -> Condition:
    """Condition: the designated attribute bag contains ``value``."""
    type_name = _type_short_name(value.data_type)
    return _condition_of(
        f"{functions.FUNCTION_PREFIX_1_0}{type_name}-is-in",
        value.data_type,
        value.lexical(),
        _designator_of(
            category, attribute_id, value.data_type, must_be_present, None
        ),
    )


def _type_short_name(data_type: DataType) -> str:
    names = {
        DataType.STRING: "string",
        DataType.BOOLEAN: "boolean",
        DataType.INTEGER: "integer",
        DataType.DOUBLE: "double",
        DataType.TIME: "time",
        DataType.DATE_TIME: "dateTime",
        DataType.ANY_URI: "anyURI",
        DataType.RFC822_NAME: "rfc822Name",
        DataType.X500_NAME: "x500Name",
    }
    return names[data_type]
