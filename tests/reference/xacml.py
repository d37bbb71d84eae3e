"""XACML 2.0, read off the standard: the semantics the engine is judged by.

Sections are those of the XACML 2.0 core specification (OASIS, 2005).
Targets have the AnyOf / AllOf shape the package uses; the 3.0 tables
for that shape say what 2.0 §7.5–7.6 say for its own.  Everything is
done the slow, literal way:

* the request is a list of ``(category, attribute id, data type,
  issuer, value)`` entries, scanned for every bag (§7.2.4); a bag the
  request leaves empty is asked of the finder, the context handler's
  PIP (§7.2.5), by category, id and data type as the package's finder
  protocol has it, and a bag once fetched is fixed for the decision
  (the rule 3.0 §7.3.5 makes explicit);
* a match calls its function by id on every member of the bag (§7.5);
  AllOf, AnyOf and target are the tables of §7.6; rule, policy and
  policy set those of §7.9–7.11; ``and`` / ``or`` stop at their first
  deciding argument (A.3.5);
* every combining algorithm is Appendix C's pseudo-code, line by line,
  at rule and at policy level, the 1.1 ordered variants included;
* obligations are §7.14's: those of the evaluated children that reached
  the combined decision, then the element's own for that decision.

The status code of an Indeterminate is the error's (§7.15):
``missing-attribute`` for an empty ``MustBePresent`` bag, else
``processing-error``.  Where the standard leaves open which child's
error a combined Indeterminate reports, the reference takes the first
in a target and the last under the overrides algorithms.

It reads the policy objects' fields and calls registered functions by
id.  It calls no ``evaluate`` method, no combiner, no engine and no
store (``tests/observability/test_reference_lint.py``).  Policy
references are outside it (``tests/xacml/test_policy_references.py``).

Where the engine departs from the standard, the departure is an entry
of :data:`LEDGER` (the README's "Where the engine departs from XACML
2.0") and a *reading* the reference can take.  The differential tests
judge the engine under :data:`ENGINE`, every reading taken, and allow
no other disagreement; each ledger cell shows the engine and
:data:`SPEC`, no reading taken, disagreeing exactly as its entry says.
"""

from __future__ import annotations

from repro.xacml import functions
from repro.xacml.attributes import AttributeValue, Bag, Category, DataType, boolean
from repro.xacml.context import Decision, StatusCode
from repro.xacml.expressions import AnyOfFunction, Apply, Designator, Literal
from repro.xacml.policy import Policy
from repro.xacml.rules import Rule

PERMIT, DENY = Decision.PERMIT, Decision.DENY
NOT_APPLICABLE, INDETERMINATE = Decision.NOT_APPLICABLE, Decision.INDETERMINATE
OK, MISSING, ERROR = StatusCode.OK, StatusCode.MISSING_ATTRIBUTE, StatusCode.PROCESSING_ERROR
#: The three values of a match, an AllOf, an AnyOf and a target (§7.5–7.6),
#: spelt as the engine's ``MatchResult`` values.
MATCH, NO_MATCH, UNDECIDED = "match", "no-match", "indeterminate"

#: Reading -> the clause the engine departs from.
LEDGER = {
    "policy-deny-overrides": "C.1: an Indeterminate policy is a Deny",
    "policy-permit-overrides": "C.2: a Deny beats an Indeterminate policy",
    "rule-effects": "C.1, C.2: only a rule of the overriding effect is a potential win",
    "only-one-by-decision": "C.4: a child is applicable when its target matches",
    "target-status-ok": "§7.15: an Indeterminate target reports its error",
    "eager-and-or": "A.3.5: and / or leave the arguments after a deciding one unevaluated",
}
ENGINE = frozenset(LEDGER)
SPEC: frozenset[str] = frozenset()


class Indeterminate(Exception):
    """An expression that cannot be evaluated (§7.15), with its code."""

    def __init__(self, code: StatusCode = ERROR) -> None:
        self.code = code


def entries_of(pairs):
    """A request as §7.2 reads it: one ``(category, attribute id, data
    type, issuer, value)`` per value of each ``(category, Attribute)``."""
    return [
        (category, attribute.attribute_id, value.data_type, attribute.issuer, value)
        for category, attribute in pairs
        for value in attribute.values
    ]


def entries(request):
    return entries_of((c, a) for c in Category for a in request.attributes(c))


def request_bag(held, category, attribute_id, data_type, issuer=None):
    """§7.2.4: the values whose category, id and data type are these and,
    when an issuer is named, whose issuer is that one."""
    return [
        value
        for c, i, t, s, value in held
        if (c, i, t) == (category, attribute_id, data_type) and issuer in (None, s)
    ]


class Context:
    """One decision's world: the request's entries, the finder, the
    readings taken, and the bags fetched so far."""

    def __init__(self, request, finder=None, readings=SPEC) -> None:
        self.entries = entries(request)
        self.finder, self.readings = finder, readings
        self.bags: dict = {}

    def bag(self, designator) -> Bag:
        d = designator
        key = (d.category, d.attribute_id, d.data_type, d.issuer)
        if key not in self.bags:
            values = request_bag(self.entries, *key)
            if not values and self.finder is not None:
                values = list(self.finder(*key[:3]))
            self.bags[key] = values
        if designator.must_be_present and not self.bags[key]:
            raise Indeterminate(MISSING)
        return Bag(self.bags[key])


def function(function_id):
    try:
        return functions.lookup(function_id)
    except functions.FunctionError:
        raise Indeterminate() from None


def call(func, *arguments):
    try:
        return func(*arguments)
    except functions.FunctionError:
        raise Indeterminate() from None


def is_true(value) -> bool:
    return isinstance(value, AttributeValue) and value.value is True


def is_boolean(value) -> bool:
    return isinstance(value, AttributeValue) and value.data_type is DataType.BOOLEAN


#: A.3.5: ``and`` stops at its first False argument, ``or`` at its first True.
STOPS = {functions.FUNCTION_PREFIX_1_0 + name: stop for name, stop in (("and", False), ("or", True))}


def value_of(ctx: Context, expression):
    """An expression's value (§7.3), or Indeterminate."""
    kind = type(expression)
    if kind is Literal:
        return expression.value
    if kind is Designator:
        return ctx.bag(expression.designator)
    func = function(expression.function_id)
    if kind is Apply:
        stop = STOPS.get(expression.function_id)
        if stop is None or "eager-and-or" in ctx.readings:
            return call(func, *[value_of(ctx, a) for a in expression.arguments])
        for argument in expression.arguments:
            value = value_of(ctx, argument)
            if not is_boolean(value):
                raise Indeterminate()
            if value.value is stop:
                return boolean(stop)
        return boolean(not stop)
    # A.3.12: any-of holds when the function holds for some member of
    # the bag, all-of when it holds for every member.
    value, bag = value_of(ctx, expression.value), value_of(ctx, expression.bag)
    if not isinstance(bag, Bag):
        raise Indeterminate()
    wanted = kind is AnyOfFunction
    for member in bag:
        if is_true(call(func, value, member)) is wanted:
            return boolean(wanted)
    return boolean(not wanted)


def match(ctx: Context, node):
    """§7.5: Match when the function is True for some member of the bag,
    else Indeterminate when an application failed, else No match."""
    try:
        func = function(node.match_function)
        bag = ctx.bag(node.designator)
    except Indeterminate as exc:
        return UNDECIDED, exc.code
    failed = None
    for member in bag:
        try:
            if is_true(call(func, node.value, member)):
                return MATCH, None
        except Indeterminate as exc:
            failed = failed or exc.code
    return (UNDECIDED, failed) if failed else (NO_MATCH, None)


def table(results, decisive):
    """§7.6: ``decisive`` — No match for an AllOf and a target, Match for
    an AnyOf — if some part is, else Indeterminate if some part is, else
    the other of the two."""
    failed = None
    for value, code in results:
        if value == decisive:
            return decisive, None
        if value == UNDECIDED:
            failed = failed or code
    if failed:
        return UNDECIDED, failed
    return (NO_MATCH if decisive == MATCH else MATCH), None


def target(ctx: Context, node):
    """§7.6: a conjunction of AnyOf, each a disjunction of AllOf, each a
    conjunction of matches; the empty target matches."""

    def all_of(group):
        return table((match(ctx, m) for m in group.matches), NO_MATCH)

    def any_of(group):
        return table(map(all_of, group.all_ofs), MATCH)

    return table(map(any_of, node.any_ofs), NO_MATCH)


def evaluate(ctx: Context, element):
    """§7.9–7.11: a rule's, policy's or policy set's ``(decision, status
    code, obligations)``."""
    applies, code = target(ctx, element.target)
    if applies == NO_MATCH:
        return NOT_APPLICABLE, OK, ()
    if applies == UNDECIDED:
        return INDETERMINATE, OK if "target-status-ok" in ctx.readings else code, ()
    if isinstance(element, Rule):
        if element.condition is None:
            return element.effect, OK, ()
        try:
            value = value_of(ctx, element.condition.expression)
            if not is_boolean(value):  # §7.8
                raise Indeterminate()
        except Indeterminate as exc:
            return INDETERMINATE, exc.code, ()
        return (element.effect if value.value else NOT_APPLICABLE), OK, ()
    if isinstance(element, Policy):
        return combine(ctx, element.rule_combining, element.rules, element.obligations)
    return combine(ctx, element.policy_combining, element.children, element.obligations)


def combine(ctx: Context, algorithm, children, obligations=()):
    """Appendix C over the children, then §7.14's obligations."""
    evaluated = []

    def decide(child):
        outcome = evaluate(ctx, child)
        evaluated.append(outcome)
        return outcome

    decision, code = ALGORITHMS[algorithm](ctx, list(children), decide)
    if decision not in (PERMIT, DENY):
        return decision, code, ()
    passed = [ob for taken, _, held in evaluated if taken is decision for ob in held]
    return decision, code, tuple(passed + [o for o in obligations if o.fulfill_on is decision])


def overrides(winner):
    """C.1 (``winner`` Deny) and C.2 (``winner`` Permit), rule and policy
    level: ``potential`` is the pseudo-code's potentialDeny /
    potentialPermit, ``error`` its atLeastOneError."""
    loser = PERMIT if winner is DENY else DENY
    reading = "policy-deny-overrides" if winner is DENY else "policy-permit-overrides"

    def combiner(ctx, children, decide):
        lost, potential, error = False, None, None
        for child in children:
            decision, code, _ = decide(child)
            if decision is winner:
                return winner, OK
            if decision is loser:
                lost = True
            elif decision is INDETERMINATE:
                error = code
                if isinstance(child, Rule):
                    if child.effect is winner or "rule-effects" in ctx.readings:
                        potential = code
                elif reading in ctx.readings:
                    potential = code
                elif winner is DENY:
                    return DENY, OK
        if potential is not None:
            return INDETERMINATE, potential
        if lost:
            return loser, OK
        if error is not None:
            return INDETERMINATE, error
        return NOT_APPLICABLE, OK

    return combiner


def first_applicable(ctx, children, decide):
    """C.3: the first child that is not NotApplicable decides."""
    for child in children:
        decision, code, _ = decide(child)
        if decision is not NOT_APPLICABLE:
            return decision, code
    return NOT_APPLICABLE, OK


def only_one_applicable(ctx, children, decide):
    """C.4: a child is applicable when its target matches; an
    Indeterminate target or a second applicable child is Indeterminate;
    the one applicable child decides."""
    chosen = None
    for child in children:
        if "only-one-by-decision" in ctx.readings:
            outcome = decide(child)
            applies = {NOT_APPLICABLE: NO_MATCH, INDETERMINATE: UNDECIDED}.get(outcome[0], MATCH)
            code = outcome[1]
        else:
            outcome, (applies, code) = None, target(ctx, child.target)
        if applies == UNDECIDED:
            return INDETERMINATE, code
        if applies == MATCH:
            if chosen is not None:
                return INDETERMINATE, ERROR
            chosen = child, outcome
    if chosen is None:
        return NOT_APPLICABLE, OK
    return (chosen[1] or decide(chosen[0]))[:2]


ALGORITHMS = {
    f"urn:oasis:names:tc:xacml:{version}:{level}-combining-algorithm:{name}": combiner
    for level in ("rule", "policy")
    for version, name, combiner in (
        ("1.0", "deny-overrides", overrides(DENY)),
        ("1.1", "ordered-deny-overrides", overrides(DENY)),
        ("1.0", "permit-overrides", overrides(PERMIT)),
        ("1.1", "ordered-permit-overrides", overrides(PERMIT)),
        ("1.0", "first-applicable", first_applicable),
    )
}
ALGORITHMS[
    "urn:oasis:names:tc:xacml:1.0:policy-combining-algorithm:only-one-applicable"
] = only_one_applicable


def authorization_decision(elements, request, algorithm, finder=None, readings=SPEC):
    """§7.13: the top-level elements combined like the children of a
    policy set with no target and no obligations — ``(decision, status
    code, obligations)``."""
    return combine(Context(request, finder, readings), algorithm, elements)
