"""The evaluation core: known answers for expressions, targets and
rules, bags fetched once per decision, functions bound when a node is
built, unknown functions, and every status message the engine writes.
What expressions, targets and rules decide is judged by the reference
semantics (``test_evaluation_reference.py``); nothing there judges the
reference, so the known answers here pin both."""

import dataclasses

import pytest
from reference import xacml

from repro.xacml import (
    ANY_TARGET,
    AllOf,
    AllOfFunction,
    AnyOf,
    AnyOfFunction,
    AttributeDesignator,
    Category,
    Condition,
    DataType,
    Decision,
    Designator,
    EvaluationContext,
    Indeterminate,
    Match,
    MatchResult,
    PdpEngine,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    SUBJECT_ID,
    StatusCode,
    Target,
    apply_,
    combining,
    attribute_equals,
    boolean,
    deny_rule,
    designator,
    integer,
    literal,
    functions,
    match_equal,
    parse_policy,
    permit_rule,
    serialize_policy,
    string,
    subject_resource_action_target as sra,
    target_of,
)
from repro.xacml.expressions import Designator
from repro.xacml.functions import FUNCTION_PREFIX_1_0
from repro.xacml.policy import PolicySet
from repro.xacml.rules import Rule


def ctx_for(subject="alice", resource="doc", action="read", **kwargs):
    return EvaluationContext(
        request=RequestContext.simple(subject, resource, action, **kwargs)
    )


ROLE = AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)


def counting_finder(answers):
    """A finder answering its n-th call with ``answers[n]`` (the last one
    from then on), and the list of calls it saw."""
    calls = []

    def finder(category, attribute_id, data_type):
        calls.append((category, attribute_id, data_type))
        return list(answers[min(len(calls), len(answers)) - 1])

    return finder, calls


class TestOneBagPerDesignatorPerDecision:
    """XACML 3.0 §7.3.5: a bag is populated before it is first tested
    and immutable for the rest of the evaluation."""

    def role_policy(self, *roles):
        return Policy(
            policy_id="by-role",
            rules=tuple(
                permit_rule(
                    f"permit-{role}",
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string(role)
                    ),
                )
                for role in roles
            )
            + (deny_rule("otherwise"),),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )

    def test_a_pip_updated_mid_evaluation_does_not_split_the_decision(self):
        # First answer "nurse"; "doctor" from the second call on.  Rule
        # one wants a doctor, rule two a nurse: re-fetching per rule
        # (the parent) sees doctor at rule two and falls to the deny.
        finder, calls = counting_finder([[string("nurse")], [string("doctor")]])
        engine = PdpEngine(attribute_finder=finder)
        engine.add_policy(self.role_policy("doctor", "nurse", "clerk"))
        response = engine.evaluate(RequestContext.simple("s", "r", "read"))
        assert response.decision is Decision.PERMIT
        assert response.stats.finder_calls == 1
        assert len(calls) == 1

    def test_each_decision_fetches_afresh(self):
        finder, calls = counting_finder([[string("nurse")], [string("doctor")]])
        engine = PdpEngine(attribute_finder=finder)
        engine.add_policy(self.role_policy("nurse"))
        request = RequestContext.simple("s", "r", "read")
        assert engine.evaluate(request).decision is Decision.PERMIT
        assert engine.evaluate(request).decision is Decision.DENY
        assert len(calls) == 2

    def test_an_empty_answer_is_remembered_too(self):
        finder, calls = counting_finder([[]])
        ctx = EvaluationContext(
            request=RequestContext.simple("s", "r", "a"), attribute_finder=finder
        )
        assert ctx.resolve(ROLE).is_empty()
        assert ctx.resolve(ROLE).is_empty()
        assert len(calls) == 1
        assert ctx.finder_calls == 1
        assert ctx.resolved_attributes == []

    def test_request_attributes_never_reach_the_finder(self):
        finder, calls = counting_finder([[string("from-pip")]])
        ctx = EvaluationContext(
            request=RequestContext.simple(
                "s", "r", "a", subject_attributes={SUBJECT_ROLE: [string("own")]}
            ),
            attribute_finder=finder,
        )
        assert [v.value for v in ctx.resolve(ROLE)] == ["own"]
        assert [v.value for v in ctx.resolve(ROLE)] == ["own"]
        assert calls == []
        assert ctx.finder_calls == 0

    def test_must_be_present_is_judged_on_every_touch(self):
        required = dataclasses.replace(ROLE, must_be_present=True)
        ctx = ctx_for()
        # The optional twin reads the same (empty) bag without raising,
        # before, between and after.
        assert ctx.resolve(ROLE).is_empty()
        for _ in range(2):
            with pytest.raises(Indeterminate) as err:
                ctx.resolve(required)
            assert err.value.status.code is StatusCode.MISSING_ATTRIBUTE
            assert ctx.resolve(ROLE).is_empty()

    @pytest.mark.parametrize(
        "twin",
        [
            dataclasses.replace(ROLE, data_type=DataType.ANY_URI),
            dataclasses.replace(ROLE, issuer="hospital-idp"),
            dataclasses.replace(ROLE, category=Category.RESOURCE),
            dataclasses.replace(ROLE, attribute_id=SUBJECT_ROLE + "'|None"),
        ],
        ids=["data-type", "issuer", "category", "attribute-id"],
    )
    def test_designators_that_differ_are_separate_fetches(self, twin):
        finder, calls = counting_finder([[string("a")], [string("b")]])
        ctx = EvaluationContext(
            request=RequestContext.simple("s", "r", "a"), attribute_finder=finder
        )
        assert [v.value for v in ctx.resolve(ROLE)] == ["a"]
        assert [v.value for v in ctx.resolve(twin)] == ["b"]
        assert [v.value for v in ctx.resolve(ROLE)] == ["a"]
        assert ctx.finder_calls == 2

    def test_must_be_present_does_not_separate_designators(self):
        required = dataclasses.replace(ROLE, must_be_present=True)
        assert required.bag_key == ROLE.bag_key
        assert required != ROLE


def ask(subject="alice", action="read", x=None):
    """A request for doc; ``x``: the values of subject attribute X."""
    return RequestContext.simple(subject, "doc", action, {X: x} if x else None)


def either(*subjects):
    """A target with one alternative per subject."""
    alternatives = tuple(
        AllOf((match_equal(Category.SUBJECT, SUBJECT_ID, string(s)),)) for s in subjects
    )
    return Target((AnyOf(alternatives),))


def f(name):
    return FUNCTION_PREFIX_1_0 + name


def when(expression):
    return permit_rule("r", condition=Condition(expression))


X = "urn:test:x"
X_BAG = designator(Category.SUBJECT, X)
X_REQUIRED = Designator(
    AttributeDesignator(Category.SUBJECT, X, DataType.STRING, must_be_present=True)
)
X_INTEGERS = designator(Category.SUBJECT, X, DataType.INTEGER)
ONE, TWO, THREE = (literal(integer(n)) for n in (1, 2, 3))
ALICE_READS_DOC = sra("alice", "doc", "read")
ALICE_OR_BOB = either("alice", "bob")
X_IS_ONE = target_of(Match(f("integer-equal"), integer(1), X_BAG.designator))
STAFF = attribute_equals(Category.SUBJECT, X, string("staff"))
MATCH, NO_MATCH = MatchResult.MATCH, MatchResult.NO_MATCH
PERMIT, DENY = Decision.PERMIT, Decision.DENY
NOT_APPLICABLE, INDETERMINATE = Decision.NOT_APPLICABLE, Decision.INDETERMINATE
#: A target over a request: target, request, result.
TARGET_CELLS = {
    "empty_target_matches_everything": (ANY_TARGET, ask(), MATCH),
    "subject_resource_action_target": (ALICE_READS_DOC, ask(), MATCH),
    "subject_resource_action_target-bob": (ALICE_READS_DOC, ask("bob"), NO_MATCH),
    "subject_resource_action_target-write": (ALICE_READS_DOC, ask(action="write"), NO_MATCH),
    "any_of_disjunction-alice": (ALICE_OR_BOB, ask(), MATCH),
    "any_of_disjunction-bob": (ALICE_OR_BOB, ask("bob"), MATCH),
    "any_of_disjunction-carol": (ALICE_OR_BOB, ask("carol"), NO_MATCH),
    "match_over_multivalued_bag": (
        target_of(match_equal(Category.SUBJECT, X, string("admin"))),
        ask(x=[string("user"), string("admin")]),
        MATCH,
    ),
    "equality_of_another_type_than_the_designator_is_an_error": (
        X_IS_ONE, ask(x=[string("1")]), MatchResult.INDETERMINATE
    ),
    "equality_of_another_type_over_an_empty_bag": (X_IS_ONE, ask(), NO_MATCH),
}


@pytest.mark.parametrize("target, request_, result", TARGET_CELLS.values(), ids=TARGET_CELLS.keys())
def test_a_target_known_answer(target, request_, result):
    assert target.evaluate(EvaluationContext(request=request_)) is result
    reference = xacml.Context(request_, readings=xacml.ENGINE)
    assert xacml.target(reference, target)[0] == result.value


#: A rule over a request: rule, request, decision.
RULE_CELLS = {
    "rule_effect_on_match": (permit_rule("r", ALICE_READS_DOC), ask(), PERMIT),
    "rule_not_applicable_on_target_miss": (permit_rule("r", sra("bob")), ask(), NOT_APPLICABLE),
    "rule_condition_false_not_applicable": (when(literal(boolean(False))), ask(), NOT_APPLICABLE),
    "rule_condition_error_indeterminate": (
        when(apply_(f("string-one-and-only"), X_BAG)), ask(), INDETERMINATE
    ),
    "missing_required_attribute_indeterminate": (
        when(apply_(f("string-is-in"), literal(string("x")), X_REQUIRED)),
        ask(),
        INDETERMINATE,
    ),
    "deny_rule": (deny_rule("r"), ask(), DENY),
    "attribute_equals_helper-staff": (
        permit_rule("r", condition=STAFF), ask(x=[string("staff")]), PERMIT
    ),
    "attribute_equals_helper-nobody": (permit_rule("r", condition=STAFF), ask(), NOT_APPLICABLE),
    "condition_must_be_boolean": (when(ONE), ask(), INDETERMINATE),
    "condition_rejects_bag_result": (when(X_BAG), ask(x=[string("v")]), INDETERMINATE),
}


@pytest.mark.parametrize("rule, request_, decision", RULE_CELLS.values(), ids=RULE_CELLS.keys())
def test_a_rule_known_answer(rule, request_, decision):
    """Decision, and a status code the reference agrees with."""
    got = rule.evaluate(EvaluationContext(request=request_))
    code = got.status.code if got.status else StatusCode.OK
    reference = xacml.Context(request_, readings=xacml.ENGINE)
    assert got.decision is decision
    assert xacml.evaluate(reference, rule)[:2] == (decision, code)


#: An expression over a request: expression, request, value.
EXPRESSION_CELLS = {
    "literal": (literal(integer(5)), ask(), 5),
    "apply_nested": (
        apply_(f("integer-add"), ONE, apply_(f("integer-multiply"), TWO, THREE)),
        ask(),
        7,
    ),
    "any_of": (
        AnyOfFunction(f("string-equal"), literal(string("b")), X_BAG),
        ask(x=[string("a"), string("b")]),
        True,
    ),
    "all_of": (
        AllOfFunction(f("integer-less-than"), THREE, X_INTEGERS),
        ask(x=[integer(5), integer(7)]),
        True,
    ),
}


@pytest.mark.parametrize(
    "expression, request_, value", EXPRESSION_CELLS.values(), ids=EXPRESSION_CELLS.keys()
)
def test_an_expression_known_answer(expression, request_, value):
    assert expression.evaluate(EvaluationContext(request=request_)).value == value
    reference = xacml.Context(request_, readings=xacml.ENGINE)
    assert xacml.value_of(reference, expression).value == value


def test_a_rule_effect_must_be_definitive():
    with pytest.raises(ValueError):
        Rule(rule_id="bad", effect=Decision.NOT_APPLICABLE)


class TestBoundAtConstruction:
    """What the frozen nodes work out in ``__post_init__`` is invisible
    to ``==``, ``hash``, ``repr`` and ``dataclasses.replace``."""

    def test_equality_hash_and_repr_ignore_the_bindings(self):
        first = match_equal(Category.SUBJECT, SUBJECT_ROLE, string("nurse"))
        second = match_equal(Category.SUBJECT, SUBJECT_ROLE, string("nurse"))
        assert first == second and hash(first) == hash(second)
        assert "_by_value" not in repr(first) and "bag_key" not in repr(first)
        assert "_combiner" not in repr(dataclasses.replace(Policy("p", ())))

    def test_replace_rebinds(self):
        equal = match_equal(Category.SUBJECT, SUBJECT_ROLE, string("nurse"))
        regexp = dataclasses.replace(
            equal, match_function=FUNCTION_PREFIX_1_0 + "string-regexp-match"
        )
        ctx = ctx_for(subject_attributes={SUBJECT_ROLE: [string("head-nurse")]})
        assert equal.evaluate(ctx) is MatchResult.NO_MATCH
        assert regexp.evaluate(ctx) is MatchResult.MATCH
        policy = dataclasses.replace(Policy("p", (permit_rule("r"),)), issuer="acme")
        assert policy.evaluate(ctx).decision is Decision.PERMIT

    def test_shared_booleans_still_refuse_non_booleans(self):
        assert boolean(True) is boolean(True)
        assert boolean(False).value is False
        with pytest.raises(TypeError):
            boolean(1)


BOGUS = "urn:bogus:function"


class TestUnknownFunction:
    """A deployed policy naming a function nobody registered evaluates
    Indeterminate; it used to raise FunctionError out of the engine."""

    def decide(self, policy):
        engine = PdpEngine()
        # The wire form deploys too: the parser does not know functions.
        engine.add_policy(parse_policy(serialize_policy(policy)))
        response = engine.evaluate(
            RequestContext.simple(
                "alice", "doc", "read",
                subject_attributes={SUBJECT_ROLE: [string("nurse")]},
            )
        )
        return response.response.result

    def test_match(self):
        bad = Match(match_function=BOGUS, value=string("nurse"), designator=ROLE)
        assert bad.evaluate(ctx_for()) is MatchResult.INDETERMINATE
        result = self.decide(Policy("p", (permit_rule("r"),), target=target_of(bad)))
        assert result.decision is Decision.INDETERMINATE

    @pytest.mark.parametrize(
        "expression",
        [
            apply_(BOGUS, literal(string("nurse"))),
            AnyOfFunction(BOGUS, literal(string("nurse")), Designator(ROLE)),
            AllOfFunction(BOGUS, literal(string("nurse")), Designator(ROLE)),
            # Unknown stays an error when the bag gives it nothing to do.
            AllOfFunction(
                BOGUS,
                literal(string("nurse")),
                designator(Category.SUBJECT, "urn:test:absent"),
            ),
        ],
        ids=["apply", "any-of", "all-of", "all-of-empty-bag"],
    )
    def test_expression(self, expression):
        with pytest.raises(Indeterminate) as err:
            expression.evaluate(ctx_for())
        assert err.value.status.code is StatusCode.PROCESSING_ERROR
        assert BOGUS in err.value.status.message
        result = self.decide(
            Policy("p", (permit_rule("r", condition=Condition(expression)),))
        )
        assert result.decision is Decision.INDETERMINATE
        assert result.status.code is StatusCode.PROCESSING_ERROR
        assert BOGUS in result.status.message

    def test_combining_does_the_rest(self):
        bad = permit_rule("bad", condition=Condition(apply_(BOGUS)))
        policy = Policy(
            "p", (deny_rule("deny"), bad),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        assert self.decide(policy).decision is Decision.DENY

    def test_a_function_registered_later_is_found_at_evaluation(self):
        late = "urn:test:registered-after-the-policy-was-built"
        match = Match(match_function=late, value=string("nurse"), designator=ROLE)
        expression = apply_(late, literal(string("x")), literal(string("x")))
        ctx = ctx_for(subject_attributes={SUBJECT_ROLE: [string("nurse")]})
        assert match.evaluate(ctx) is MatchResult.INDETERMINATE
        string_equal = functions.lookup(FUNCTION_PREFIX_1_0 + "string-equal")
        functions.register(late)(string_equal)
        try:
            assert match.evaluate(ctx) is MatchResult.MATCH
            assert expression.evaluate(ctx).value is True
        finally:
            del functions._REGISTRY[late]


CLEARANCE = AttributeDesignator(
    Category.SUBJECT, "urn:test:clearance", DataType.STRING, must_be_present=True
)
NEEDS_CLEARANCE = target_of(
    Match(FUNCTION_PREFIX_1_0 + "string-equal", string("secret"), CLEARANCE)
)
ONE_AND_ONLY = FUNCTION_PREFIX_1_0 + "integer-one-and-only"
GREATER = FUNCTION_PREFIX_1_0 + "integer-greater-than"
TYPE_ERROR = f"{GREATER}: expected INTEGER, got STRING"
ABSENT = designator(Category.SUBJECT, "urn:test:absent", DataType.INTEGER)


def conditioned(expression):
    return Policy("p", (permit_rule("r", condition=Condition(expression)),))


def over_roles(node):
    """An any-of or all-of of an integer compare over the string roles."""
    return conditioned(node(GREATER, literal(integer(1)), Designator(ROLE)))


IS_IN = FUNCTION_PREFIX_1_0 + "string-is-in"
PERMITS = permit_rule("r")
#: Every status message the engine writes, with an element that makes
#: it: the reference semantics judges decision and status code only.
STATUS_MESSAGES = {
    "missing-attribute": (
        conditioned(apply_(IS_IN, literal(string("x")), Designator(CLEARANCE))),
        "missing required attribute subject:urn:test:clearance",
    ),
    "function-error": (
        conditioned(apply_(ONE_AND_ONLY, ABSENT)),
        f"error applying {ONE_AND_ONLY}: {ONE_AND_ONLY}: "
        "bag has 0 elements, exactly one required",
    ),
    "any-of": (over_roles(AnyOfFunction), f"any-of: {TYPE_ERROR}"),
    "all-of": (over_roles(AllOfFunction), f"all-of: {TYPE_ERROR}"),
    "not-a-boolean": (
        conditioned(literal(string("x"))),
        "condition evaluated to STRING, expected boolean",
    ),
    "a-bag": (conditioned(Designator(ROLE)), "condition evaluated to a bag, expected boolean"),
    "unknown-function": (conditioned(apply_(BOGUS)), f"unknown function {BOGUS!r}"),
    "rule-target": (
        Policy("p", (permit_rule("r", target=NEEDS_CLEARANCE),)),
        "target of rule r indeterminate",
    ),
    "policy-target": (
        Policy("p", (PERMITS,), target=NEEDS_CLEARANCE),
        "target of policy p indeterminate",
    ),
    "policy-set-target": (
        PolicySet("s", (Policy("p", (PERMITS,)),), target=NEEDS_CLEARANCE),
        "target of policy set s indeterminate",
    ),
}


@pytest.mark.parametrize(
    "element, message", STATUS_MESSAGES.values(), ids=STATUS_MESSAGES.keys()
)
def test_status_message(element, message):
    engine = PdpEngine(policy_combining=combining.POLICY_FIRST_APPLICABLE)
    engine.add_policy(element)
    request = RequestContext.simple(
        "alice", "doc", "read", subject_attributes={SUBJECT_ROLE: [string("nurse")]}
    )
    result = engine.evaluate(request).response.result
    assert result.decision is Decision.INDETERMINATE
    assert result.status.message == message
