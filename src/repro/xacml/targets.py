"""Targets: the applicability test of rules, policies and policy sets.

A target is a conjunction of AnyOf groups, each a disjunction of AllOf
conjunctions of individual :class:`Match` elements, each comparing a
literal against a designated request attribute.  Targets decide *whether
a policy applies at all*, before conditions run — and they are the
structure the engine indexes to stay fast at scale (experiment E14).

Target evaluation is what every candidate policy pays first, so it is
kept short, and the frozen objects work out at construction what no
evaluation can change:

* a :class:`Match` binds its registry function once (the registry
  refuses to overwrite, so the binding cannot go stale; an id unknown
  at construction is looked up again at evaluation, and an id still
  unknown then makes the match Indeterminate like any other function
  failure — it does not raise out of the PDP);
* a :class:`Match` whose function is the ``type-equal`` of both its
  literal's and its designator's data type compares raw values instead
  of calling the function and unwrapping the boolean it builds.  The
  function's type guard stays: a bag value of another type (only a
  finder can supply one) is an error, hence Indeterminate unless
  another value matches;
* an AnyOf with exactly one AllOf — all :func:`target_of` builds — is
  that AllOf, and the target, a conjunction itself, evaluates its
  matches in a row: same order, same stop at the first NO_MATCH,
  Indeterminate remembered to the end, two ``evaluate`` frames fewer
  per match.  Groups with more (or no) alternatives go through
  :meth:`AnyOf.evaluate`.

Bags come from :meth:`EvaluationContext.resolve`, which fetches each
designator once per decision (see :mod:`repro.xacml.expressions`).

There is one *summary* of a target, :meth:`AnyOf.pins`: what each
alternative of a group pins a canonical identifier to, by bag and by
value.  The store's index keys and residues
(:mod:`repro.xacml.engine`) are built from it, and
:meth:`Target.pinned` — what shard partitioning and delegation scopes
read — is the same walk asked about one bag.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

from . import functions
from .attributes import (
    ACTION_ID,
    AttributeDesignator,
    AttributeValue,
    Category,
    DataType,
    LEAF_MEMO_SIZE,
    RESOURCE_ID,
    SUBJECT_ID,
    _designator_of,
    string,
)
from .expressions import EvaluationContext, Indeterminate, _type_short_name

#: The identifiers every request is expected to carry, and so the only
#: ones :meth:`AnyOf.pins` reports: anything else is normally resolved
#: through a PIP and says nothing about a request that omits it.
CANONICAL_IDS: Mapping[str, Category] = MappingProxyType(
    {
        SUBJECT_ID: Category.SUBJECT,
        RESOURCE_ID: Category.RESOURCE,
        ACTION_ID: Category.ACTION,
    }
)

#: The bags requests are routed and scoped by: the
#: un-issued string designators :func:`subject_resource_action_target`
#: builds (:meth:`Target.pinned` is asked about these).
SUBJECT_BAG = AttributeDesignator(Category.SUBJECT, SUBJECT_ID, DataType.STRING)
RESOURCE_BAG = AttributeDesignator(Category.RESOURCE, RESOURCE_ID, DataType.STRING)
ACTION_BAG = AttributeDesignator(Category.ACTION, ACTION_ID, DataType.STRING)

#: One equality a target pins: the bag it reads and the value it wants.
Pin = tuple[AttributeDesignator, AttributeValue]


class MatchResult(enum.Enum):
    MATCH = "match"
    NO_MATCH = "no-match"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, slots=True)
class Match:
    """One Match element: ``function(literal, candidate)`` over a bag.

    Per the standard, a Match is true if the function returns true for
    *any* value in the designated bag.
    """

    match_function: str
    value: AttributeValue
    designator: AttributeDesignator
    _function: Optional[functions.Function] = field(
        init=False, repr=False, compare=False
    )
    #: The function is the ``type-equal`` of the literal's and the
    #: designator's own type: compare values, keep the type guard.
    _by_value: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_function", functions.find(self.match_function))
        data_type = functions.EQUALITY_FUNCTIONS.get(self.match_function)
        object.__setattr__(
            self,
            "_by_value",
            data_type is self.value.data_type
            and data_type is self.designator.data_type,
        )

    def __reduce__(self) -> tuple[Any, ...]:
        # The bound function is a registry closure, which does not
        # pickle: a copy is rebuilt from the id and binds its own.
        return type(self), (self.match_function, self.value, self.designator)

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        try:
            func = self._function or functions.lookup(self.match_function)
            bag = ctx.resolve(self.designator)
        except (Indeterminate, functions.FunctionError):
            return MatchResult.INDETERMINATE
        saw_error = False
        if self._by_value:
            wanted = self.value.value
            data_type = self.value.data_type
            for candidate in bag:
                if candidate.data_type is not data_type:
                    saw_error = True
                elif candidate.value == wanted:
                    return MatchResult.MATCH
        else:
            for candidate in bag:
                try:
                    result = func(self.value, candidate)
                except functions.FunctionError:
                    saw_error = True
                    continue
                if isinstance(result, AttributeValue) and result.value is True:
                    return MatchResult.MATCH
        if saw_error:
            return MatchResult.INDETERMINATE
        return MatchResult.NO_MATCH


@dataclass(frozen=True, slots=True)
class AllOf:
    """A conjunction of matches; true only if every match is true."""

    matches: tuple[Match, ...]

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for match in self.matches:
            result = match.evaluate(ctx)
            if result is MatchResult.NO_MATCH:
                return MatchResult.NO_MATCH
            if result is MatchResult.INDETERMINATE:
                indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.MATCH


@dataclass(frozen=True, slots=True)
class AnyOf:
    """A disjunction of AllOf groups; true if any group is true."""

    all_ofs: tuple[AllOf, ...]

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for all_of in self.all_ofs:
            result = all_of.evaluate(ctx)
            if result is MatchResult.MATCH:
                return MatchResult.MATCH
            if result is MatchResult.INDETERMINATE:
                indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.NO_MATCH

    def pins(self) -> Optional[list[list[Pin]]]:
        """Per alternative, the canonical identifiers it pins to a value.

        A pin is an equality match *that compares by value*
        (:attr:`Match._by_value`: function, literal and designator of
        one data type) on one of :data:`CANONICAL_IDS`, given as
        ``(designator, literal)``.  Such a match is definite whenever
        the request itself carries the designator's bag — MATCH if the
        literal is in it, NO_MATCH otherwise, never Indeterminate — and
        a NO_MATCH decides its conjunction whatever the other matches
        do.  An equality whose literal or designator is of another type
        raises on every compare and pins nothing.

        None when some alternative has no pin (it can match whatever
        the identifiers are: ``AnyOf[AllOf(resource=r1),
        AllOf(role=admin)]`` matches any resource through the role
        branch) or when there is no alternative at all.  This is the one
        walk the store index, shard partitioning and delegation scopes
        all read a target through.
        """
        pinned = []
        for all_of in self.all_ofs:
            pins = []
            for match in all_of.matches:
                designator = match.designator
                if (
                    match._by_value
                    and CANONICAL_IDS.get(designator.attribute_id)
                    is designator.category
                ):
                    pins.append((designator, match.value))
            if not pins:
                return None
            pinned.append(pins)
        return pinned or None


@dataclass(frozen=True, slots=True)
class Target:
    """Applicability predicate; an empty target matches everything."""

    any_ofs: tuple[AnyOf, ...] = ()

    def evaluate(self, ctx: EvaluationContext) -> MatchResult:
        indeterminate = False
        for any_of in self.any_ofs:
            # A group with one alternative *is* that AllOf, and an AllOf
            # inside this conjunction is its matches in a row.
            members: tuple[Match, ...] | tuple[AnyOf] = (
                any_of.all_ofs[0].matches
                if len(any_of.all_ofs) == 1
                else (any_of,)
            )
            for member in members:
                result = member.evaluate(ctx)
                if result is MatchResult.NO_MATCH:
                    return MatchResult.NO_MATCH
                if result is MatchResult.INDETERMINATE:
                    indeterminate = True
        if indeterminate:
            return MatchResult.INDETERMINATE
        return MatchResult.MATCH

    @property
    def matches_everything(self) -> bool:
        return not self.any_ofs

    def pinned(self, designator: AttributeDesignator) -> Optional[frozenset[str]]:
        """Values the designated bag *must* hold one of for a match.

        The lexical forms ``V`` such that the target can only match
        requests whose ``designator`` bag — that very bag: category, id,
        data type and issuer — holds a value in ``V``; None when the
        target does not confine it.  This is the sound criterion shard
        partitioning and delegation scopes need: a
        literal in one branch of a disjunction confines nothing (the
        target matches through the branch that omits it), and neither
        does a pin on *another* bag of the same name (``resource-id`` as
        ``anyURI``, or bound to an issuer): a request may carry another
        value in the bag it is routed by.  A target is a conjunction, so
        one group pinning the bag in every alternative
        (:meth:`AnyOf.pins`) is enough; the first in target order answers.
        """
        bag_key = designator.bag_key
        for any_of in self.any_ofs:
            alternatives = any_of.pins()
            if alternatives is None:
                continue
            values: set[str] = set()
            for pins in alternatives:
                found = {
                    value.lexical()
                    for held, value in pins
                    if held.bag_key == bag_key
                }
                if not found:
                    break
                values |= found
            else:
                return frozenset(values)
        return None


ANY_TARGET = Target()


@functools.lru_cache(maxsize=LEAF_MEMO_SIZE)
def _match_of(
    match_function: str,
    data_type: DataType,
    lexical: str,
    designator: AttributeDesignator,
) -> Match:
    """The match these parts spell, its literal given as data type plus
    lexical form; equal parts share one object
    (:func:`~repro.xacml.attributes._designator_of` has the contract)."""
    return Match(
        match_function, AttributeValue.parse(data_type, lexical), designator
    )


@functools.lru_cache(maxsize=LEAF_MEMO_SIZE)
def _single_of(match: Match, lexical: str) -> AnyOf:
    """The group whose one alternative is that one match, shared like
    it (:func:`~repro.xacml.attributes._designator_of`).  ``lexical``,
    the literal's, is there for the key alone: matches are equal when
    their literals are, and ``double(0.0) == double(-0.0)``."""
    return AnyOf(all_ofs=(AllOf(matches=(match,)),))


def match_equal(
    category: Category, attribute_id: str, value: AttributeValue
) -> Match:
    """Build the ubiquitous equality match."""
    type_name = _type_short_name(value.data_type)
    return _match_of(
        f"{functions.FUNCTION_PREFIX_1_0}{type_name}-equal",
        value.data_type,
        value.lexical(),
        _designator_of(category, attribute_id, value.data_type, False, None),
    )


def target_of(*matches: Match) -> Target:
    """A target requiring all given matches (one AnyOf/AllOf each)."""
    return Target(
        any_ofs=tuple(_single_of(m, m.value.lexical()) for m in matches)
    )


def subject_resource_action_target(
    subject_id: str | None = None,
    resource_id: str | None = None,
    action_id: str | None = None,
) -> Target:
    """The canonical {subject, resource, action} target, any part optional."""
    matches = []
    if subject_id is not None:
        matches.append(match_equal(Category.SUBJECT, SUBJECT_ID, string(subject_id)))
    if resource_id is not None:
        matches.append(
            match_equal(Category.RESOURCE, RESOURCE_ID, string(resource_id))
        )
    if action_id is not None:
        matches.append(match_equal(Category.ACTION, ACTION_ID, string(action_id)))
    return target_of(*matches)
