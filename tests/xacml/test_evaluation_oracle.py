"""Differential oracle for the evaluator.

``oracle_resolve`` and the four ``oracle_*_evaluate`` functions below are
the interpreter bodies ``EvaluationContext.resolve``, ``Match.evaluate``,
``AllOf.evaluate``, ``AnyOf.evaluate`` and ``Target.evaluate`` had before
the engine learnt to fetch one bag per designator per decision, bind
functions at construction, compare equality matches by value and run
single-alternative groups as one conjunction.  They re-fetch on every
touch, look every function up on every call and recurse through every
level — slow and obviously the standard's semantics.

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

from contextlib import ExitStack
from unittest import mock

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
)
from repro.xacml.expressions import Designator
from repro.xacml.functions import FUNCTION_PREFIX_1_0
from repro.xacml.rules import Rule

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


def the_oracle():
    """Context manager: the evaluator runs the bodies above."""
    stack = ExitStack()
    for owner, name, body in (
        (EvaluationContext, "resolve", oracle_resolve),
        (Match, "evaluate", oracle_match_evaluate),
        (AllOf, "evaluate", oracle_all_of_evaluate),
        (AnyOf, "evaluate", oracle_any_of_evaluate),
        (Target, "evaluate", oracle_target_evaluate),
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


@st.composite
def stores(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return [draw(policies(f"p{n}")) for n in range(count)]


POLICY_COMBINING = (
    combining.POLICY_DENY_OVERRIDES,
    combining.POLICY_PERMIT_OVERRIDES,
    combining.POLICY_FIRST_APPLICABLE,
    combining.POLICY_ONLY_ONE_APPLICABLE,
)


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
