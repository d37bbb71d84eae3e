"""Differential oracle for the evaluator.

``oracle_resolve`` and the four ``oracle_*_evaluate`` functions below are
the interpreter bodies ``EvaluationContext.resolve``, ``Match.evaluate``,
``AllOf.evaluate``, ``AnyOf.evaluate`` and ``Target.evaluate`` had before
the engine learnt to fetch one bag per designator per decision, bind
functions at construction, compare equality matches by value and run
single-alternative groups as one conjunction.  They re-fetch on every
touch, look every function up on every call and recurse through every
level — slow and obviously the standard's semantics.

The second block is what sat above them before combiners became folds
over a lazy stream of outcomes: the four combining algorithms over a
list of *callables*, ``Rule`` / ``Policy`` / ``PolicySet.evaluate``
wrapping every child in a closure and every outcome in a result object,
``Apply`` evaluating every argument through ``.evaluate``, ``is-in``
through ``any()``, ``Condition`` with its type checks first, and the
engine's ``_evaluate_candidates``.  The parent's *store* is not here: it
is the thing found unsound, and the store's oracle stays
``indexed=False`` plus the superset property of ``test_properties.py``.

Hypothesis draws targets with multi-alternative groups, non-equality
functions, literals whose type is not the designator's, multi-valued and
empty bags, issuer-bound and ``must_be_present`` designators, and pure
finders that sometimes answer with the wrong data type; the engine must
agree with the oracle on every ``MatchResult`` and, for whole stores
under all four combining algorithms, on decision, status and
obligations.  (The finders are pure because the oracle asks them again
on every touch; what a finder that changes its mind does is pinned in
``test_evaluation.py``.)
"""

import sys
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.xacml import (
    ACTION_ID,
    AllOf,
    AllOfFunction,
    AnyOf,
    AnyOfFunction,
    Attribute,
    AttributeDesignator,
    AttributeValue,
    Bag,
    Category,
    Condition,
    DataType,
    Decision,
    EvaluationContext,
    Indeterminate,
    Match,
    MatchResult,
    Obligation,
    PdpEngine,
    Policy,
    PolicyStore,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    SUBJECT_ROLE,
    StatusCode,
    Target,
    apply_,
    combining,
    functions,
    integer,
    literal,
    string,
    subject_resource_action_target,
)
from repro.xacml.context import ResponseContext, Status
from repro.xacml.engine import EngineResponse
from repro.xacml.expressions import Apply, Designator
from repro.xacml.functions import FUNCTION_PREFIX_1_0
from repro.xacml.policy import PolicyResult, PolicySet
from repro.xacml.rules import Rule, RuleResult

# -- the parent's interpreter ------------------------------------------------------


def oracle_resolve(self, designator):
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
    if bag.is_empty() and designator.must_be_present:
        raise Indeterminate(
            f"missing required attribute {designator.describe()}",
            code=StatusCode.MISSING_ATTRIBUTE,
        )
    return bag


def oracle_match_evaluate(self, ctx):
    func = functions.lookup(self.match_function)
    try:
        bag = ctx.resolve(self.designator)
    except Indeterminate:
        return MatchResult.INDETERMINATE
    saw_error = False
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


def oracle_all_of_evaluate(self, ctx):
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


def oracle_any_of_evaluate(self, ctx):
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


def oracle_target_evaluate(self, ctx):
    indeterminate = False
    for any_of in self.any_ofs:
        result = any_of.evaluate(ctx)
        if result is MatchResult.NO_MATCH:
            return MatchResult.NO_MATCH
        if result is MatchResult.INDETERMINATE:
            indeterminate = True
    if indeterminate:
        return MatchResult.INDETERMINATE
    return MatchResult.MATCH


# -- the parent's combining, rules, policies, conditions ----------------------------


def oracle_deny_overrides(children):
    saw_permit = False
    saw_indeterminate = None
    for child in children:
        decision, status = child()
        if decision is Decision.DENY:
            return Decision.DENY, status
        if decision is Decision.INDETERMINATE:
            saw_indeterminate = status or Status(
                code=StatusCode.PROCESSING_ERROR, message="child indeterminate"
            )
        elif decision is Decision.PERMIT:
            saw_permit = True
    if saw_indeterminate is not None:
        return Decision.INDETERMINATE, saw_indeterminate
    if saw_permit:
        return Decision.PERMIT, None
    return Decision.NOT_APPLICABLE, None


def oracle_permit_overrides(children):
    saw_deny = False
    deny_status = None
    saw_indeterminate = None
    for child in children:
        decision, status = child()
        if decision is Decision.PERMIT:
            return Decision.PERMIT, status
        if decision is Decision.INDETERMINATE:
            saw_indeterminate = status or Status(
                code=StatusCode.PROCESSING_ERROR, message="child indeterminate"
            )
        elif decision is Decision.DENY:
            saw_deny = True
            deny_status = status
    if saw_indeterminate is not None:
        return Decision.INDETERMINATE, saw_indeterminate
    if saw_deny:
        return Decision.DENY, deny_status
    return Decision.NOT_APPLICABLE, None


def oracle_first_applicable(children):
    for child in children:
        decision, status = child()
        if decision is Decision.NOT_APPLICABLE:
            continue
        return decision, status
    return Decision.NOT_APPLICABLE, None


def oracle_only_one_applicable(children):
    applicable = None
    for child in children:
        decision, status = child()
        if decision is Decision.NOT_APPLICABLE:
            continue
        if decision is Decision.INDETERMINATE:
            return Decision.INDETERMINATE, status
        if applicable is not None:
            return (
                Decision.INDETERMINATE,
                Status(
                    code=StatusCode.PROCESSING_ERROR,
                    message="more than one policy applicable "
                    "under only-one-applicable",
                ),
            )
        applicable = (decision, status)
    if applicable is None:
        return Decision.NOT_APPLICABLE, None
    return applicable


#: By algorithm id: policies bind the engine's combiner when they are
#: built, so the oracle's bodies look theirs up here.
ORACLE_COMBINERS = {
    combining.RULE_DENY_OVERRIDES: oracle_deny_overrides,
    combining.RULE_PERMIT_OVERRIDES: oracle_permit_overrides,
    combining.RULE_FIRST_APPLICABLE: oracle_first_applicable,
    combining.RULE_ORDERED_DENY_OVERRIDES: oracle_deny_overrides,
    combining.RULE_ORDERED_PERMIT_OVERRIDES: oracle_permit_overrides,
    combining.POLICY_DENY_OVERRIDES: oracle_deny_overrides,
    combining.POLICY_PERMIT_OVERRIDES: oracle_permit_overrides,
    combining.POLICY_FIRST_APPLICABLE: oracle_first_applicable,
    combining.POLICY_ONLY_ONE_APPLICABLE: oracle_only_one_applicable,
}


def oracle_rule_evaluate(self, ctx):
    try:
        match = self.target.evaluate(ctx)
    except Indeterminate as exc:
        return RuleResult(Decision.INDETERMINATE, exc.status)
    if match is MatchResult.NO_MATCH:
        return RuleResult(Decision.NOT_APPLICABLE)
    if match is MatchResult.INDETERMINATE:
        return RuleResult(
            Decision.INDETERMINATE,
            Status(message=f"target of rule {self.rule_id} indeterminate"),
        )
    if self.condition is not None:
        try:
            satisfied = self.condition.evaluate(ctx)
        except Indeterminate as exc:
            return RuleResult(Decision.INDETERMINATE, exc.status)
        if not satisfied:
            return RuleResult(Decision.NOT_APPLICABLE)
    return RuleResult(self.effect)


def _oracle_rule_outcome(rule, ctx):
    result = rule.evaluate(ctx)
    return result.decision, result.status


def _oracle_matching_obligations(obligations, decision):
    if decision not in (Decision.PERMIT, Decision.DENY):
        return ()
    return tuple(ob for ob in obligations if ob.fulfill_on is decision)


def oracle_policy_evaluate(self, ctx):
    try:
        match = self.target.evaluate(ctx)
    except Indeterminate as exc:
        return PolicyResult(Decision.INDETERMINATE, exc.status)
    if match is MatchResult.NO_MATCH:
        return PolicyResult(Decision.NOT_APPLICABLE)
    if match is MatchResult.INDETERMINATE:
        return PolicyResult(
            Decision.INDETERMINATE,
            Status(message=f"target of policy {self.policy_id} indeterminate"),
        )
    evaluables = [
        (lambda r=rule: _oracle_rule_outcome(r, ctx)) for rule in self.rules
    ]
    decision, status = ORACLE_COMBINERS[self.rule_combining](evaluables)
    return PolicyResult(
        decision=decision,
        status=status,
        obligations=_oracle_matching_obligations(self.obligations, decision),
    )


def oracle_policy_set_evaluate(self, ctx):
    try:
        match = self.target.evaluate(ctx)
    except Indeterminate as exc:
        return PolicyResult(Decision.INDETERMINATE, exc.status)
    if match is MatchResult.NO_MATCH:
        return PolicyResult(Decision.NOT_APPLICABLE)
    if match is MatchResult.INDETERMINATE:
        return PolicyResult(
            Decision.INDETERMINATE,
            Status(
                message=f"target of policy set {self.policy_set_id} indeterminate"
            ),
        )
    collected = []

    def child_evaluable(child):
        def run():
            result = child.evaluate(ctx)
            if result.decision.is_definitive:
                collected.extend(result.obligations)
            return result.decision, result.status

        return run

    evaluables = [child_evaluable(child) for child in self.children]
    decision, status = ORACLE_COMBINERS[self.policy_combining](evaluables)
    child_obligations = tuple(ob for ob in collected if ob.fulfill_on is decision)
    return PolicyResult(
        decision=decision,
        status=status,
        obligations=child_obligations
        + _oracle_matching_obligations(self.obligations, decision),
    )


def _oracle_is_in(data_type, fid):
    def is_in(*args):
        functions._arity(args, 2, fid)
        value = functions._require_value(args[0], data_type, fid)
        bag = functions._require_bag(args[1], fid)
        return functions.boolean(any(v.value == value.value for v in bag))

    return is_in


#: The registry's ``type-is-in`` functions as the parent wrote them.
ORACLE_FUNCTIONS = {
    fid: _oracle_is_in(data_type, fid)
    for fid, data_type in (
        (f"{FUNCTION_PREFIX_1_0}{type_name}-is-in", data_type)
        for type_name, data_type in functions._BAG_TYPES.items()
    )
}


def oracle_apply_evaluate(self, ctx):
    try:
        func = ORACLE_FUNCTIONS.get(self.function_id) or functions.lookup(
            self.function_id
        )
    except functions.FunctionError as exc:
        raise Indeterminate(str(exc)) from exc
    args = [argument.evaluate(ctx) for argument in self.arguments]
    try:
        return func(*args)
    except functions.FunctionError as exc:
        raise Indeterminate(f"error applying {self.function_id}: {exc}") from exc


def oracle_condition_evaluate(self, ctx):
    result = self.expression.evaluate(ctx)
    if isinstance(result, Bag):
        raise Indeterminate("condition evaluated to a bag, expected boolean")
    if result.data_type is not DataType.BOOLEAN:
        raise Indeterminate(
            f"condition evaluated to {result.data_type.name}, expected boolean"
        )
    return bool(result.value)


def oracle_evaluate_candidates(
    self, store, request, key, candidates, stats, current_time, attribute_finder
):
    ctx = EvaluationContext(
        request=request,
        current_time=current_time,
        attribute_finder=attribute_finder,
        reference_resolver=store.get,
    )
    stats.policies_considered = len(candidates)
    results = []

    def make_evaluable(element):
        def run():
            result = element.evaluate(ctx)
            results.append(result)
            return result.decision, result.status

        return run

    combiner = ORACLE_COMBINERS[self.policy_combining]
    decision, status = combiner([make_evaluable(c) for c in candidates])
    obligations = tuple(
        ob
        for result in results
        if result.decision is decision
        for ob in result.obligations
        if ob.fulfill_on is decision
    )
    stats.finder_calls = ctx.finder_calls
    response = ResponseContext.single(
        decision=decision,
        status=status or Status(),
        obligations=obligations,
        resource_id=request.resource_id,
    )
    return EngineResponse(response=response, stats=stats)


def the_oracle():
    """Context manager: the evaluator runs the bodies above."""
    stack = ExitStack()
    for owner, name, body in (
        (EvaluationContext, "resolve", oracle_resolve),
        (Match, "evaluate", oracle_match_evaluate),
        (AllOf, "evaluate", oracle_all_of_evaluate),
        (AnyOf, "evaluate", oracle_any_of_evaluate),
        (Target, "evaluate", oracle_target_evaluate),
        (Rule, "evaluate", oracle_rule_evaluate),
        (Policy, "evaluate", oracle_policy_evaluate),
        (PolicySet, "evaluate", oracle_policy_set_evaluate),
        (Apply, "evaluate", oracle_apply_evaluate),
        (Condition, "evaluate", oracle_condition_evaluate),
        (PdpEngine, "_evaluate_candidates", oracle_evaluate_candidates),
    ):
        stack.enter_context(mock.patch.object(owner, name, body))
    return stack


# -- what hypothesis draws ---------------------------------------------------------

#: A small world, so that draws collide: the same attribute is read by
#: several designators, under several types and issuers, and matched by
#: several literals.
ATTRIBUTES = (
    (Category.SUBJECT, SUBJECT_ID),
    (Category.SUBJECT, SUBJECT_ROLE),
    (Category.RESOURCE, RESOURCE_ID),
    (Category.RESOURCE, "urn:test:level"),
    (Category.ACTION, ACTION_ID),
)
ISSUERS = (None, "idp-a", "idp-b")

values = st.one_of(
    st.sampled_from(["a", "b", "ab", "1"]).map(string),
    st.integers(min_value=0, max_value=3).map(integer),
)
match_functions = st.sampled_from(
    [
        FUNCTION_PREFIX_1_0 + name
        for name in (
            "string-equal",
            "integer-equal",
            "anyURI-equal",
            "string-regexp-match",
            "integer-greater-than",
        )
    ]
)


@st.composite
def attribute_designators(draw, data_type=None):
    category, attribute_id = draw(st.sampled_from(ATTRIBUTES))
    return AttributeDesignator(
        category=category,
        attribute_id=attribute_id,
        data_type=data_type
        or draw(st.sampled_from([DataType.STRING, DataType.INTEGER])),
        must_be_present=draw(st.booleans()),
        issuer=draw(st.sampled_from(ISSUERS)),
    )


@st.composite
def equality_matches(draw):
    """``type-equal`` over a literal and a designator of that very type
    (what ``match_equal`` builds): the compare-by-value shape."""
    value = draw(values)
    name = "string" if value.data_type is DataType.STRING else "integer"
    return Match(
        match_function=f"{FUNCTION_PREFIX_1_0}{name}-equal",
        value=value,
        designator=draw(attribute_designators(value.data_type)),
    )


matches = st.one_of(
    equality_matches(),
    # Anything goes: the types of function, literal and designator need
    # not agree, and the function need not be an equality.
    st.builds(
        Match,
        match_function=match_functions,
        value=values,
        designator=attribute_designators(),
    ),
)
all_ofs = st.builds(AllOf, matches=st.lists(matches, max_size=3).map(tuple))
# One alternative is the shape the conjunction path takes, two or more
# (and none: a group nothing satisfies) the shape it must leave alone.
any_ofs = st.builds(AnyOf, all_ofs=st.lists(all_ofs, max_size=3).map(tuple))
targets = st.builds(Target, any_ofs=st.lists(any_ofs, max_size=3).map(tuple))


@st.composite
def requests(draw):
    request = RequestContext()
    for category, attribute_id in ATTRIBUTES:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            request.add(
                category,
                Attribute(
                    attribute_id,
                    tuple(draw(st.lists(values, min_size=1, max_size=3))),
                    issuer=draw(st.sampled_from(ISSUERS)),
                ),
            )
    return request


@st.composite
def finders(draw):
    """None, or a pure finder over a drawn table.  An honest one filters
    on the data type asked for; the other hands back what it has, which
    is how a wrongly-typed value gets into a bag."""
    if draw(st.booleans()):
        return None
    table = {}
    for key in ATTRIBUTES:
        kind = draw(st.sampled_from(["absent", "strings", "integers"]))
        if kind == "strings":
            table[key] = draw(
                st.lists(st.sampled_from(["a", "b", "1"]).map(string), max_size=3)
            )
        elif kind == "integers":
            table[key] = draw(
                st.lists(st.integers(0, 3).map(integer), max_size=3)
            )
    honest = draw(st.booleans())

    def finder(category, attribute_id, data_type):
        held = table.get((category, attribute_id), [])
        if honest:
            return [value for value in held if value.data_type is data_type]
        return list(held)

    return finder


def _designator_expressions():
    return attribute_designators().map(Designator)


@st.composite
def boolean_expressions(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["is-in", "any-of", "all-of", "greater", "one-and-only"]
            + (["and", "or", "not"] if depth else [])
        )
    )
    if kind == "is-in":
        type_name = draw(st.sampled_from(["string", "integer"]))
        return apply_(
            f"{FUNCTION_PREFIX_1_0}{type_name}-is-in",
            literal(draw(values)),
            draw(_designator_expressions()),
        )
    if kind in ("any-of", "all-of"):
        node = AnyOfFunction if kind == "any-of" else AllOfFunction
        return node(
            function_id=draw(match_functions),
            value=literal(draw(values)),
            bag=draw(_designator_expressions()),
        )
    if kind == "greater":
        return apply_(
            FUNCTION_PREFIX_1_0 + "integer-greater-than",
            apply_(
                FUNCTION_PREFIX_1_0 + "integer-one-and-only",
                draw(_designator_expressions()),
            ),
            literal(draw(values)),
        )
    if kind == "one-and-only":
        # Not a boolean: the condition must call that Indeterminate.
        return apply_(
            FUNCTION_PREFIX_1_0 + "string-one-and-only",
            draw(_designator_expressions()),
        )
    operands = draw(
        st.lists(
            boolean_expressions(depth=depth - 1),
            min_size=1,
            max_size=1 if kind == "not" else 3,
        )
    )
    return apply_(FUNCTION_PREFIX_1_0 + kind, *operands)


effects = st.sampled_from([Decision.PERMIT, Decision.DENY])
sparse_targets = st.one_of(st.just(Target()), targets)


@st.composite
def rules(draw, rule_id):
    return Rule(
        rule_id=rule_id,
        effect=draw(effects),
        target=draw(sparse_targets),
        condition=draw(
            st.one_of(st.none(), boolean_expressions().map(Condition))
        ),
    )


@st.composite
def policies(draw, policy_id):
    count = draw(st.integers(min_value=1, max_value=3))
    return Policy(
        policy_id=policy_id,
        rules=tuple(draw(rules(f"{policy_id}-r{n}")) for n in range(count)),
        rule_combining=draw(
            st.sampled_from(
                [
                    combining.RULE_DENY_OVERRIDES,
                    combining.RULE_PERMIT_OVERRIDES,
                    combining.RULE_FIRST_APPLICABLE,
                ]
            )
        ),
        target=draw(sparse_targets),
        obligations=tuple(
            Obligation(f"{policy_id}-on-{effect.value}", effect)
            for effect in draw(st.lists(effects, max_size=2, unique=True))
        ),
    )


POLICY_COMBINING = (
    combining.POLICY_DENY_OVERRIDES,
    combining.POLICY_PERMIT_OVERRIDES,
    combining.POLICY_FIRST_APPLICABLE,
    combining.POLICY_ONLY_ONE_APPLICABLE,
)


@st.composite
def policy_sets(draw, set_id):
    count = draw(st.integers(min_value=1, max_value=3))
    return PolicySet(
        policy_set_id=set_id,
        children=tuple(draw(policies(f"{set_id}-p{n}")) for n in range(count)),
        policy_combining=draw(st.sampled_from(POLICY_COMBINING)),
        target=draw(sparse_targets),
        obligations=tuple(
            Obligation(f"{set_id}-on-{effect.value}", effect)
            for effect in draw(st.lists(effects, max_size=2, unique=True))
        ),
    )


@st.composite
def stores(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(st.one_of(policies(f"p{n}"), policy_sets(f"s{n}")))
        for n in range(count)
    ]


# -- the properties ----------------------------------------------------------------


def match_result(node, request, finder):
    return node.evaluate(
        EvaluationContext(request=request, attribute_finder=finder)
    )


class TestEvaluatorAgainstTheOracle:
    @settings(max_examples=1000, deadline=None)
    @given(matches, requests(), finders())
    def test_matches_match_alike(self, match, request, finder):
        got = match_result(match, request, finder)
        with the_oracle():
            expected = match_result(match, request, finder)
        assert got is expected

    @settings(max_examples=400, deadline=None)
    @given(targets, requests(), finders())
    def test_targets_match_alike(self, target, request, finder):
        got = match_result(target, request, finder)
        with the_oracle():
            expected = match_result(target, request, finder)
        assert got is expected

    @settings(max_examples=300, deadline=None)
    @given(stores(), requests(), finders())
    def test_stores_decide_alike(self, elements, request, finder):
        for algorithm in POLICY_COMBINING:
            engine = PdpEngine(
                policy_combining=algorithm, attribute_finder=finder
            )
            engine.add_policies(elements)
            got = engine.evaluate(request)
            with the_oracle():
                expected = engine.evaluate(request)
            # Decision, status code and message, obligations.
            assert got.response == expected.response
            assert (
                got.stats.policies_considered
                == expected.stats.policies_considered
            )
            assert got.stats.candidate_set_size == expected.stats.candidate_set_size
            # One fetch per designator can only ask the finder less.
            assert got.stats.finder_calls <= expected.stats.finder_calls

    @settings(max_examples=200, deadline=None)
    @given(attribute_designators(), attribute_designators())
    def test_bag_keys_separate_exactly_what_a_fetch_depends_on(self, one, other):
        def fetched_by(designator):
            return (
                designator.category,
                designator.attribute_id,
                designator.data_type,
                designator.issuer,
            )

        assert (one.bag_key == other.bag_key) == (
            fetched_by(one) == fetched_by(other)
        )

    @given(st.text(), st.text(), st.one_of(st.none(), st.text()),
           st.one_of(st.none(), st.text()))
    def test_hostile_identifiers_cannot_forge_a_bag_key(
        self, id_one, id_other, issuer_one, issuer_other
    ):
        one = AttributeDesignator(
            Category.SUBJECT, id_one, DataType.STRING, issuer=issuer_one
        )
        other = AttributeDesignator(
            Category.SUBJECT, id_other, DataType.STRING, issuer=issuer_other
        )
        assert (one.bag_key == other.bag_key) == (
            (id_one, issuer_one) == (id_other, issuer_other)
        )


# -- laziness and shape ------------------------------------------------------------


def role_is(role):
    """A condition only the attribute finder can answer."""
    return Condition(
        apply_(
            FUNCTION_PREFIX_1_0 + "string-is-in",
            literal(string(role)),
            Designator(
                AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)
            ),
        )
    )


def deciding_child(decision):
    """A child that decides from the request alone, with one obligation
    for either effect."""
    if decision is Decision.INDETERMINATE:
        rules = (
            Rule(
                "broken",
                Decision.PERMIT,
                condition=Condition(literal(string("not a boolean"))),
            ),
        )
    else:
        rules = (Rule("decides", decision),)
    return Policy(
        policy_id="first",
        rules=rules,
        obligations=(
            Obligation("first-on-permit", Decision.PERMIT),
            Obligation("first-on-deny", Decision.DENY),
        ),
    )


#: Per policy-combining algorithm, a first child that settles it.
SHORT_CIRCUITS = (
    (combining.POLICY_DENY_OVERRIDES, Decision.DENY),
    (combining.POLICY_PERMIT_OVERRIDES, Decision.PERMIT),
    (combining.POLICY_FIRST_APPLICABLE, Decision.PERMIT),
    (combining.POLICY_FIRST_APPLICABLE, Decision.INDETERMINATE),
    (combining.POLICY_ONLY_ONE_APPLICABLE, Decision.INDETERMINATE),
)


class TestLaziness:
    """Children after the deciding one are never evaluated: their
    obligations do not flow, their finder is never asked."""

    def late_child(self):
        return Policy(
            policy_id="late",
            rules=(Rule("needs-role", Decision.PERMIT, condition=role_is("admin")),),
            obligations=(
                Obligation("late-on-permit", Decision.PERMIT),
                Obligation("late-on-deny", Decision.DENY),
            ),
        )

    def decide(self, element, algorithm=combining.POLICY_DENY_OVERRIDES):
        asked = []

        def finder(category, attribute_id, data_type):
            asked.append(attribute_id)
            return [string("admin")]

        engine = PdpEngine(policy_combining=algorithm, attribute_finder=finder)
        engine.add_policy(element)
        request = RequestContext.simple("alice", "doc", "read")
        got = engine.evaluate(request)
        asked_by_engine = list(asked)
        with the_oracle():
            expected = engine.evaluate(request)
        assert got.response == expected.response
        return got, asked_by_engine

    @pytest.mark.parametrize("algorithm, decision", SHORT_CIRCUITS)
    def test_a_policy_set_stops_at_the_deciding_child(self, algorithm, decision):
        outer = PolicySet(
            policy_set_id="outer",
            children=(deciding_child(decision), self.late_child()),
            policy_combining=algorithm,
            obligations=(
                Obligation("outer-on-permit", Decision.PERMIT),
                Obligation("outer-on-deny", Decision.DENY),
            ),
        )
        got, asked = self.decide(outer)
        assert got.decision is decision
        assert asked == [] and got.stats.finder_calls == 0
        suffix = {Decision.PERMIT: "permit", Decision.DENY: "deny"}.get(decision)
        assert [ob.obligation_id for ob in got.response.result.obligations] == (
            [f"first-on-{suffix}", f"outer-on-{suffix}"] if suffix else []
        )

    @pytest.mark.parametrize("algorithm, decision", SHORT_CIRCUITS)
    def test_the_engine_stops_at_the_deciding_candidate(self, algorithm, decision):
        asked = []

        def finder(category, attribute_id, data_type):
            asked.append(attribute_id)
            return [string("admin")]

        engine = PdpEngine(policy_combining=algorithm, attribute_finder=finder)
        engine.add_policies([deciding_child(decision), self.late_child()])
        got = engine.evaluate(RequestContext.simple("alice", "doc", "read"))
        assert got.decision is decision
        assert got.stats.policies_considered == 2
        assert asked == [] and got.stats.finder_calls == 0

    def test_a_policy_stops_at_the_deciding_rule(self):
        policy = Policy(
            policy_id="p",
            rules=(
                Rule("deny-first", Decision.DENY),
                Rule("needs-role", Decision.PERMIT, condition=role_is("admin")),
            ),
        )
        got, asked = self.decide(policy)
        assert got.decision is Decision.DENY
        assert asked == []

    def test_every_child_is_reached_when_none_decides(self):
        outer = PolicySet(
            policy_set_id="outer",
            children=(deciding_child(Decision.PERMIT), self.late_child()),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
        got, asked = self.decide(outer)
        assert got.decision is Decision.PERMIT
        assert asked == [SUBJECT_ROLE]
        assert [ob.obligation_id for ob in got.response.result.obligations] == [
            "first-on-permit",
            "late-on-permit",
        ]

    def test_a_condition_that_is_not_a_boolean_is_indeterminate(self):
        for value in (string("true"), integer(1)):
            policy = Policy(
                policy_id="p",
                rules=(
                    Rule("r", Decision.PERMIT, condition=Condition(literal(value))),
                ),
            )
            got, _ = self.decide(policy)
            assert got.decision is Decision.INDETERMINATE
            assert "expected boolean" in got.response.result.status.message


class TestShape:
    """What the evaluator no longer builds, pinned by looking."""

    def test_deciding_enters_no_per_child_closure(self):
        policy = Policy(
            policy_id="p",
            rules=tuple(
                Rule(f"r{n}", Decision.PERMIT, condition=role_is(f"role-{n}"))
                for n in range(3)
            ),
            rule_combining=combining.RULE_PERMIT_OVERRIDES,
        )
        engine = PdpEngine(attribute_finder=lambda *_: [string("role-2")])
        engine.add_policy(policy)
        request = RequestContext.simple("alice", "doc", "read")
        entered = []

        def profiler(frame, event, arg):
            if event == "call":
                entered.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            response = engine.evaluate(request)
        finally:
            sys.setprofile(None)
        assert response.decision is Decision.PERMIT
        assert "outcome" in entered and entered.count("outcome") == 3
        # The finder above is this test's own lambda; the evaluator's
        # frames are what is being pinned.
        assert entered.count("<lambda>") == 1
        assert not {"run", "_rule_outcome", "make_evaluable", "child_evaluable"} & set(
            entered
        )

    def test_same_residue_elements_share_one_residue_object(self):
        store = PolicyStore()
        for index in range(1000):
            store.add(
                Policy(
                    policy_id=f"p{index}",
                    rules=(Rule("r", Decision.PERMIT),),
                    target=subject_resource_action_target(
                        resource_id=f"res-{index % 250}", action_id="read"
                    ),
                )
            )
        (shared, uses), = store._residues.values()
        assert uses == 1000
        residues = [
            residue
            for bag in store._index.values()
            for bucket in bag.buckets.values()
            for residue in bucket
        ]
        assert len(residues) == 250
        assert all(residue is shared for residue in residues)
        # ... and nothing is kept per element beside its posting.
        assert sum(
            len(postings)
            for bag in store._index.values()
            for bucket in bag.buckets.values()
            for postings in bucket.values()
        ) == 1000
