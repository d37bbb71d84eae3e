"""Normalization of XACML applicability predicates into a constraint algebra.

The analyzer never evaluates a live request; instead it rewrites each
``Target`` (a conjunction of AnyOf groups, each a disjunction of AllOf
conjunctions of ``Match`` elements) into disjunctive normal form over
per-attribute constraints:

* an equality match contributes a finite *allowed set*;
* an ordering match contributes a *bound* (XACML applies the function as
  ``f(literal, candidate)``, so ``greater-than`` means *literal >
  candidate* — an **upper** bound on the candidate);
* any other registered function becomes a residual :class:`Atom` that is
  still *concretely decidable*: it executes the real registered function
  against candidate values, so string predicates and regexps participate
  in emptiness and subsumption checks without bespoke theory.

Everything is three-valued (:class:`Tri`): the algebra answers YES only
when the claim holds under the analyzer's request model and NO only when
it provably fails; anything else is UNKNOWN and downstream checks skip
(or witness-verify) instead of guessing.

A match reads the way the engine and the store index read it: a
constraint is keyed on the designator's *bag* — category, attribute id,
data type and issuer, as :attr:`~repro.xacml.attributes.
AttributeDesignator.bag_key` — and an equality becomes an allowed set
only when the match compares by value (:attr:`~repro.xacml.targets.
Match._by_value`); an ill-typed equality stays a residual atom, which
the real function decides (Indeterminate: undecidable here).

Request model
-------------
The algebra reasons about *single-valued* requests: one value per bag
key.  Real XACML bags may hold several values — ``equal "a"`` and
``equal "b"`` are simultaneously satisfiable by the bag ``{a, b}`` — and
an issuer-less designator also reads what any issuer said, so
conclusions here are relative to that model.  The witness layer closes
the gap: every finding that claims concrete behaviour is replayed
through the real engine before being reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .. import functions
from ..attributes import AttributeDesignator, AttributeValue, Category, DataType
from ..expressions import (
    Apply,
    Condition,
    Designator,
    Expression,
    Literal,
)
from ..rules import Rule
from ..targets import AllOf, Match, Target

#: Upper limit on DNF clauses per normalized target.  Crossing it drops
#: clauses, turning the normal form into an *under*-approximation
#: (``exact=False``): the represented set is a subset of the true one,
#: which keeps overlap claims sound and forces subsumption/emptiness
#: claims about the truncated side to UNKNOWN.
MAX_CLAUSES = 64

#: The bag a constraint reads: category, attribute id, data type, issuer.
ConstraintKey = tuple[Category, str, DataType, Optional[str]]


class Tri(enum.Enum):
    """Three-valued verdict for static questions."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # guard against accidental truthiness
        raise TypeError("Tri verdicts must be compared explicitly")


def tri_all(verdicts: "list[Tri]") -> Tri:
    """Conjunction: YES iff all YES; NO if any NO; else UNKNOWN."""
    if any(v is Tri.NO for v in verdicts):
        return Tri.NO
    if any(v is Tri.UNKNOWN for v in verdicts):
        return Tri.UNKNOWN
    return Tri.YES


#: Probe values used to decide whether a match function can raise for
#: candidates of the designated type (a raise maps to Indeterminate at
#: evaluation time, which matters for redundancy soundness).
_PROBE_VALUES: dict[DataType, Any] = {
    DataType.STRING: "",
    DataType.BOOLEAN: False,
    DataType.INTEGER: 0,
    DataType.DOUBLE: 0.0,
    DataType.TIME: 0.0,
    DataType.DATE_TIME: 0.0,
    DataType.ANY_URI: "",
    DataType.RFC822_NAME: "",
    DataType.X500_NAME: "",
}


def _short_name(function_id: str) -> str:
    return function_id.rsplit(":", 1)[-1]


@dataclass(frozen=True)
class Atom:
    """A residual match predicate, decided by running the real function.

    ``holds_for`` returns True/False when the registered function decides
    the candidate, and None when the application raises (ill-typed match,
    bad regexp, ...) — the static mirror of Indeterminate.
    """

    function_id: str
    literal: AttributeValue

    def holds_for(self, candidate: AttributeValue) -> Optional[bool]:
        try:
            func = functions.lookup(self.function_id)
            result = func(self.literal, candidate)
        except functions.FunctionError:
            return None
        if isinstance(result, AttributeValue) and isinstance(result.value, bool):
            return bool(result.value)
        return None

    def describe(self) -> str:
        return f"{_short_name(self.function_id)}({self.literal.lexical()!r}, ·)"


@dataclass(frozen=True)
class AttributeConstraint:
    """Conjunction of requirements on one request attribute.

    ``allowed`` is a finite set of admissible raw values (None when the
    attribute is not equality-constrained); ``lower``/``upper`` are
    ``(value, inclusive)`` bounds on the candidate; ``atoms`` are residual
    predicates decided concretely.  A constraint always requires the
    attribute to be *present* — absence never satisfies a Match.
    ``issuer`` is the designator's: two bags that differ only in issuer
    are two keys.
    """

    category: Category
    attribute_id: str
    data_type: DataType
    issuer: Optional[str] = None
    allowed: Optional[frozenset] = None
    lower: Optional[tuple[Any, bool]] = None
    upper: Optional[tuple[Any, bool]] = None
    atoms: tuple[Atom, ...] = ()

    @property
    def key(self) -> ConstraintKey:
        return (self.category, self.attribute_id, self.data_type, self.issuer)

    def conjoin(self, other: "AttributeConstraint") -> "AttributeConstraint":
        if self.key != other.key:
            raise ValueError("cannot conjoin constraints on different attributes")
        if self.allowed is None:
            allowed = other.allowed
        elif other.allowed is None:
            allowed = self.allowed
        else:
            allowed = self.allowed & other.allowed
        return AttributeConstraint(
            category=self.category,
            attribute_id=self.attribute_id,
            data_type=self.data_type,
            issuer=self.issuer,
            allowed=allowed,
            lower=_tighter_bound(self.lower, other.lower, prefer_max=True),
            upper=_tighter_bound(self.upper, other.upper, prefer_max=False),
            atoms=self.atoms + other.atoms,
        )

    def admits(self, value: Any) -> Optional[bool]:
        """Does a concrete raw value satisfy this constraint?

        None means a residual atom could not decide (its function raised).
        """
        if self.allowed is not None and value not in self.allowed:
            return False
        try:
            if self.lower is not None:
                bound, inclusive = self.lower
                if value < bound or (value == bound and not inclusive):
                    return False
            if self.upper is not None:
                bound, inclusive = self.upper
                if value > bound or (value == bound and not inclusive):
                    return False
        except TypeError:
            return None
        unknown = False
        for atom in self.atoms:
            held = atom.holds_for(AttributeValue(self.data_type, value))
            if held is False:
                return False
            if held is None:
                unknown = True
        return None if unknown else True

    def is_empty(self) -> Tri:
        if self.allowed is not None:
            verdicts = [self.admits(value) for value in self.allowed]
            if any(v is True for v in verdicts):
                return Tri.NO
            if all(v is False for v in verdicts):
                return Tri.YES
            return Tri.UNKNOWN
        if self._bounds_contradict():
            return Tri.YES
        sample = self.sample()
        if sample is not None:
            return Tri.NO
        if self.atoms:
            return Tri.UNKNOWN
        return Tri.NO

    def _bounds_contradict(self) -> bool:
        if self.lower is None or self.upper is None:
            return False
        lo, lo_inc = self.lower
        hi, hi_inc = self.upper
        try:
            if lo > hi:
                return True
            if lo == hi and not (lo_inc and hi_inc):
                return True
            if (
                self.data_type is DataType.INTEGER
                and not lo_inc
                and not hi_inc
                and hi - lo <= 1
            ):
                return True
        except TypeError:
            return False
        return False

    def sample(self) -> Optional[AttributeValue]:
        """A concrete value satisfying the constraint, if one is found."""
        for candidate in self._candidate_values():
            try:
                if self.admits(candidate) is True:
                    return AttributeValue(self.data_type, candidate)
            except TypeError:
                continue
        return None

    def _candidate_values(self) -> list:
        if self.allowed is not None:
            return sorted(self.allowed, key=repr)
        out: list = []
        numeric = self.data_type in (
            DataType.INTEGER,
            DataType.DOUBLE,
            DataType.TIME,
            DataType.DATE_TIME,
        )
        if numeric:
            step: Any = 1 if self.data_type is DataType.INTEGER else 0.5
            if self.lower is not None:
                lo, lo_inc = self.lower
                out.append(lo if lo_inc else lo + step)
            if self.upper is not None:
                hi, hi_inc = self.upper
                out.append(hi if hi_inc else hi - step)
            if self.lower is not None and self.upper is not None:
                lo, hi = self.lower[0], self.upper[0]
                mid = (lo + hi) // 2 if self.data_type is DataType.INTEGER else (
                    (lo + hi) / 2
                )
                out.append(mid)
            if not out:
                out.append(0 if self.data_type is DataType.INTEGER else 0.0)
        elif self.data_type is DataType.BOOLEAN:
            out.extend([True, False])
        else:
            # String-family: seed guesses from atom literals so concrete
            # predicates (starts-with, contains, regexp) have a chance.
            for atom in self.atoms:
                lex = atom.literal.lexical()
                out.extend([lex, lex + "x", "x" + lex])
            if self.lower is not None:
                out.append(self.lower[0])
            if self.upper is not None:
                out.append(self.upper[0])
            out.append("witness")
        return out

    def subsumes(self, other: "AttributeConstraint") -> Tri:
        """YES iff every value ``other`` admits is admitted by ``self``."""
        if self.key != other.key:
            return Tri.NO
        if other.allowed is not None:
            verdicts: list[Tri] = []
            for value in other.allowed:
                other_admits = other.admits(value)
                if other_admits is False:
                    continue  # not actually in other's set
                self_admits = self.admits(value)
                if other_admits is None or self_admits is None:
                    verdicts.append(Tri.UNKNOWN)
                elif self_admits:
                    verdicts.append(Tri.YES)
                else:
                    verdicts.append(Tri.NO)
            return tri_all(verdicts)
        if self.allowed is not None or self.atoms:
            # self is strictly narrower in form than a bounds-only other;
            # deciding coverage would need value enumeration we don't have.
            return Tri.UNKNOWN
        if other.atoms:
            # other's true set is a subset of its bounds; if our bounds
            # cover other's bounds, coverage follows.
            pass
        lower_ok = _bound_covers(self.lower, other.lower, is_lower=True)
        upper_ok = _bound_covers(self.upper, other.upper, is_lower=False)
        return tri_all([lower_ok, upper_ok])

    def describe(self) -> str:
        parts: list[str] = []
        if self.allowed is not None:
            values = ", ".join(sorted(repr(v) for v in self.allowed))
            parts.append(f"in {{{values}}}")
        if self.lower is not None:
            parts.append((">= " if self.lower[1] else "> ") + repr(self.lower[0]))
        if self.upper is not None:
            parts.append(("<= " if self.upper[1] else "< ") + repr(self.upper[0]))
        parts.extend(atom.describe() for atom in self.atoms)
        label = f"{self.category.short_name}:{self.attribute_id}"
        if self.issuer is not None:
            label += f"[{self.issuer}]"
        return f"{label} {' and '.join(parts) if parts else 'present'}"


def _tighter_bound(
    a: Optional[tuple[Any, bool]],
    b: Optional[tuple[Any, bool]],
    prefer_max: bool,
) -> Optional[tuple[Any, bool]]:
    if a is None:
        return b
    if b is None:
        return a
    try:
        if a[0] == b[0]:
            return (a[0], a[1] and b[1])
        if (a[0] > b[0]) == prefer_max:
            return a
        return b
    except TypeError:
        return a


def _bound_covers(
    ours: Optional[tuple[Any, bool]],
    theirs: Optional[tuple[Any, bool]],
    is_lower: bool,
) -> Tri:
    """Does our bound admit at least everything theirs admits?"""
    if ours is None:
        return Tri.YES
    if theirs is None:
        return Tri.NO  # we constrain a side they leave open
    try:
        if ours[0] == theirs[0]:
            return Tri.YES if (ours[1] or not theirs[1]) else Tri.NO
        looser = (ours[0] < theirs[0]) if is_lower else (ours[0] > theirs[0])
        return Tri.YES if looser else Tri.NO
    except TypeError:
        return Tri.UNKNOWN


@dataclass(frozen=True)
class Clause:
    """One DNF clause: a conjunction of per-attribute constraints.

    ``opaque`` marks a clause that also carries conditions the normalizer
    could not interpret: its true admitted set is a *subset* of what the
    listed constraints describe, so only claims that survive shrinking
    (emptiness stays empty; being subsumed stays subsumed) remain YES.
    """

    constraints: tuple[AttributeConstraint, ...] = ()
    opaque: bool = False

    def constraint(self, key: ConstraintKey) -> Optional[AttributeConstraint]:
        for constraint in self.constraints:
            if constraint.key == key:
                return constraint
        return None

    def conjoin(self, other: "Clause") -> "Clause":
        merged: dict[ConstraintKey, AttributeConstraint] = {
            c.key: c for c in self.constraints
        }
        for constraint in other.constraints:
            existing = merged.get(constraint.key)
            merged[constraint.key] = (
                constraint if existing is None else existing.conjoin(constraint)
            )
        ordered = tuple(
            merged[key] for key in sorted(merged, key=_key_sort)
        )
        return Clause(constraints=ordered, opaque=self.opaque or other.opaque)

    def is_empty(self) -> Tri:
        verdicts = [c.is_empty() for c in self.constraints]
        if any(v is Tri.YES for v in verdicts):
            return Tri.YES  # empty even under opaque shrinking
        if self.opaque or any(v is Tri.UNKNOWN for v in verdicts):
            return Tri.UNKNOWN
        return Tri.NO

    def subsumes(self, other: "Clause") -> Tri:
        """YES iff every request admitted by ``other`` is admitted by us.

        A constraint always demands attribute *presence*, so if we
        constrain a key ``other`` leaves free, ``other`` admits requests
        we reject — the answer is NO, not UNKNOWN.
        """
        if self.opaque:
            return Tri.UNKNOWN  # our true set may be smaller than described
        verdicts: list[Tri] = []
        for constraint in self.constraints:
            theirs = other.constraint(constraint.key)
            if theirs is None:
                return Tri.NO
            verdicts.append(constraint.subsumes(theirs))
        return tri_all(verdicts)

    def sample(self) -> Optional[dict[ConstraintKey, AttributeValue]]:
        """Concrete attribute values jointly satisfying every constraint."""
        out: dict[ConstraintKey, AttributeValue] = {}
        for constraint in self.constraints:
            value = constraint.sample()
            if value is None:
                return None
            out[constraint.key] = value
        return out

    def describe(self) -> str:
        if not self.constraints:
            return "any request" + (" (opaque condition)" if self.opaque else "")
        text = " AND ".join(c.describe() for c in self.constraints)
        return text + (" (opaque condition)" if self.opaque else "")


def _key_sort(key: ConstraintKey) -> tuple[str, str, str, bool, str]:
    return (key[0].value, key[1], key[2].value, key[3] is not None, key[3] or "")


#: The clause admitting every request.
ANY_CLAUSE = Clause()


@dataclass(frozen=True)
class NormalizedTarget:
    """A target in disjunctive normal form over attribute constraints.

    ``exact=False`` marks an *under*-approximation (clauses were dropped
    at :data:`MAX_CLAUSES`): the represented set is a subset of the true
    one.  Overlap claims built on the represented set stay sound; claims
    that need the *whole* set (being subsumed, being unsatisfiable)
    require ``exact=True``.
    """

    clauses: tuple[Clause, ...] = (ANY_CLAUSE,)
    exact: bool = True

    def conjoin(self, other: "NormalizedTarget") -> "NormalizedTarget":
        products: list[Clause] = []
        truncated = False
        for mine in self.clauses:
            for theirs in other.clauses:
                if len(products) >= MAX_CLAUSES:
                    truncated = True
                    break
                combined = mine.conjoin(theirs)
                if combined.is_empty() is not Tri.YES:
                    products.append(combined)
            if truncated:
                break
        return NormalizedTarget(
            clauses=tuple(products),
            exact=self.exact and other.exact and not truncated,
        )

    def is_unsatisfiable(self) -> Tri:
        if not self.clauses:
            return Tri.YES if self.exact else Tri.UNKNOWN
        verdicts = [clause.is_empty() for clause in self.clauses]
        if any(v is Tri.NO for v in verdicts):
            return Tri.NO
        if all(v is Tri.YES for v in verdicts):
            return Tri.YES if self.exact else Tri.UNKNOWN
        return Tri.UNKNOWN

    def subsumes(self, other: "NormalizedTarget") -> Tri:
        """YES iff every request ``other`` admits is admitted by us.

        ``other`` must be exact (an under-approximated other could admit
        requests we never saw); our own truncation is harmless — covering
        our represented subset already implies covering it.
        """
        if not other.exact:
            return Tri.UNKNOWN
        verdicts: list[Tri] = []
        for their_clause in other.clauses:
            if their_clause.is_empty() is Tri.YES:
                continue
            best = Tri.NO
            for my_clause in self.clauses:
                verdict = my_clause.subsumes(their_clause)
                if verdict is Tri.YES:
                    best = Tri.YES
                    break
                if verdict is Tri.UNKNOWN:
                    best = Tri.UNKNOWN
            verdicts.append(best)
        return tri_all(verdicts)

    def overlap_clause(
        self, other: "NormalizedTarget"
    ) -> tuple[Tri, Optional[Clause]]:
        """Is the intersection non-empty?  Returns a witnessing clause.

        YES needs a provably non-empty conjunction of non-opaque clauses
        (sound even under truncation — representing fewer requests only
        removes overlaps).  NO needs both sides exact.
        """
        unknown = False
        for mine in self.clauses:
            for theirs in other.clauses:
                combined = mine.conjoin(theirs)
                verdict = combined.is_empty()
                if verdict is Tri.NO:
                    return Tri.YES, combined
                if verdict is Tri.UNKNOWN:
                    unknown = True
        if unknown or not (self.exact and other.exact):
            return Tri.UNKNOWN, None
        return Tri.NO, None

    def sample(self) -> Optional[dict[ConstraintKey, AttributeValue]]:
        for clause in self.clauses:
            values = clause.sample()
            if values is not None:
                return values
        return None

    def describe(self) -> str:
        if not self.clauses:
            return "no request (unsatisfiable)"
        return " OR ".join(clause.describe() for clause in self.clauses)


#: The normalized form of the empty target.
UNCONSTRAINED = NormalizedTarget()
UNSATISFIABLE = NormalizedTarget(clauses=())


def _on(designator: AttributeDesignator, **requirements: Any) -> AttributeConstraint:
    """A constraint on the bag ``designator`` reads."""
    return AttributeConstraint(
        category=designator.category,
        attribute_id=designator.attribute_id,
        data_type=designator.data_type,
        issuer=designator.issuer,
        **requirements,
    )


def _equals(designator: AttributeDesignator, value: AttributeValue) -> NormalizedTarget:
    """The one-clause form of "the bag holds ``value``"."""
    constraint = _on(designator, allowed=frozenset([value.value]))
    return NormalizedTarget(clauses=(Clause(constraints=(constraint,)),))


def match_constraint(match: Match) -> Optional[AttributeConstraint]:
    """Translate one Match into a constraint; None if the function is
    unregistered (the enclosing clause goes opaque)."""
    function_id = match.match_function
    if function_id not in functions.known_functions():
        return None
    designator = match.designator
    if match._by_value:
        return _on(designator, allowed=frozenset([match.value.value]))
    short = _short_name(function_id)
    if match.value.data_type is designator.data_type:
        literal_value = match.value.value
        # XACML applies f(literal, candidate): "greater-than" bounds the
        # candidate from ABOVE (literal > candidate), and symmetrically.
        if short.endswith("-greater-than-or-equal"):
            return _on(designator, upper=(literal_value, True))
        if short.endswith("-greater-than"):
            return _on(designator, upper=(literal_value, False))
        if short.endswith("-less-than-or-equal"):
            return _on(designator, lower=(literal_value, True))
        if short.endswith("-less-than"):
            return _on(designator, lower=(literal_value, False))
    return _on(designator, atoms=(Atom(function_id=function_id, literal=match.value),))


def match_may_error(match: Match) -> bool:
    """Can this match yield Indeterminate on *some* request?

    True when the designator is required-present (absence raises) or when
    the function application raises on a probe candidate of the
    designated type (ill-typed match, bad regexp, ...).
    """
    if match.designator.must_be_present:
        return True
    if match.match_function not in functions.known_functions():
        return True
    probe = AttributeValue(
        match.designator.data_type, _PROBE_VALUES[match.designator.data_type]
    )
    try:
        functions.lookup(match.match_function)(match.value, probe)
    except functions.FunctionError:
        return True
    return False


def _clause_from_all_of(all_of: AllOf) -> Clause:
    clause = ANY_CLAUSE
    for match in all_of.matches:
        constraint = match_constraint(match)
        clause = (
            Clause(constraints=clause.constraints, opaque=True)
            if constraint is None
            else clause.conjoin(Clause(constraints=(constraint,)))
        )
    return clause


def normalize_target(target: Target) -> NormalizedTarget:
    """Rewrite a Target into DNF over attribute constraints."""
    normalized = UNCONSTRAINED
    for any_of in target.any_ofs:
        alternatives = tuple(
            _clause_from_all_of(all_of) for all_of in any_of.all_ofs
        )
        normalized = normalized.conjoin(
            NormalizedTarget(clauses=alternatives)
        )
    return normalized


def target_may_error(target: Target) -> bool:
    return any(
        match_may_error(match)
        for any_of in target.any_ofs
        for all_of in any_of.all_ofs
        for match in all_of.matches
    )


def interpret_condition(
    condition: Condition,
) -> Optional[tuple[NormalizedTarget, bool]]:
    """Fold a recognized condition shape into the constraint algebra.

    Handles the idioms policies in this repo actually use — ``<type>-is-in
    (literal, designator)`` (the :func:`attribute_equals` builder),
    conjunctions of those via ``and``, and ``<type>-equal`` over a
    ``one-and-only`` designator.  Returns ``(normalized, may_error)`` or
    None when the expression is anything richer (the rule's condition is
    then treated as opaque).
    """
    return _interpret_boolean(condition.expression)


def _interpret_boolean(
    expression: Expression,
) -> Optional[tuple[NormalizedTarget, bool]]:
    if not isinstance(expression, Apply):
        return None
    short = _short_name(expression.function_id)
    if short == "and":
        combined = UNCONSTRAINED
        may_error = False
        for argument in expression.arguments:
            interpreted = _interpret_boolean(argument)
            if interpreted is None:
                return None
            normalized, argument_errors = interpreted
            combined = combined.conjoin(normalized)
            may_error = may_error or argument_errors
        return combined, may_error
    if short.endswith("-is-in") and len(expression.arguments) == 2:
        literal_node, designator_node = expression.arguments
        if isinstance(literal_node, Literal) and isinstance(
            designator_node, Designator
        ):
            designator = designator_node.designator
            if literal_node.value.data_type is not designator.data_type:
                return None
            return _equals(designator, literal_node.value), designator.must_be_present
    data_type = functions.EQUALITY_FUNCTIONS.get(expression.function_id)
    if data_type is not None and len(expression.arguments) == 2:
        first, second = expression.arguments
        for maybe_one_and_only, maybe_literal in ((first, second), (second, first)):
            if not isinstance(maybe_literal, Literal):
                continue
            if not isinstance(maybe_one_and_only, Apply):
                continue
            if not _short_name(maybe_one_and_only.function_id).endswith(
                "-one-and-only"
            ):
                continue
            if len(maybe_one_and_only.arguments) != 1:
                continue
            inner = maybe_one_and_only.arguments[0]
            if not isinstance(inner, Designator):
                continue
            designator = inner.designator
            if (
                maybe_literal.value.data_type is not data_type
                or designator.data_type is not data_type
            ):
                return None
            # one-and-only raises whenever the bag size is not exactly 1.
            return _equals(designator, maybe_literal.value), True
    return None


@dataclass(frozen=True)
class RuleView:
    """A rule with its statically derived applicability.

    ``applicability`` folds the rule's target together with its condition
    when the condition is interpretable; ``opaque_condition`` records
    that an uninterpretable condition further restricts the true set
    (every clause is then marked opaque).  ``may_error`` is True when any
    part of the rule can evaluate Indeterminate on some request.
    """

    rule: Rule
    applicability: NormalizedTarget
    opaque_condition: bool = False
    may_error: bool = False

    @property
    def cannot_error(self) -> bool:
        return not self.may_error


def rule_view(rule: Rule) -> RuleView:
    normalized = normalize_target(rule.target)
    may_error = target_may_error(rule.target)
    opaque = False
    if rule.condition is not None:
        interpreted = interpret_condition(rule.condition)
        if interpreted is None:
            opaque = True
            may_error = True  # an arbitrary expression may raise
            normalized = NormalizedTarget(
                clauses=tuple(
                    Clause(constraints=clause.constraints, opaque=True)
                    for clause in normalized.clauses
                ),
                exact=normalized.exact,
            )
        else:
            condition_normalized, condition_errors = interpreted
            normalized = normalized.conjoin(condition_normalized)
            may_error = may_error or condition_errors
    return RuleView(
        rule=rule,
        applicability=normalized,
        opaque_condition=opaque,
        may_error=may_error,
    )
