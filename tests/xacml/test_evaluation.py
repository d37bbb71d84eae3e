"""Tests for expressions, targets, rules: the evaluation core."""

import dataclasses

import pytest

from repro.xacml import (
    ANY_TARGET,
    AllOfFunction,
    AnyOfFunction,
    AttributeDesignator,
    Category,
    Condition,
    DataType,
    Decision,
    EvaluationContext,
    Indeterminate,
    Match,
    MatchResult,
    PdpEngine,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    StatusCode,
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
    subject_resource_action_target,
    target_of,
)
from repro.xacml.expressions import Designator
from repro.xacml.functions import FUNCTION_PREFIX_1_0


def ctx_for(subject="alice", resource="doc", action="read", **kwargs):
    return EvaluationContext(
        request=RequestContext.simple(subject, resource, action, **kwargs)
    )


class TestExpressions:
    def test_literal(self):
        assert literal(integer(5)).evaluate(ctx_for()).value == 5

    def test_designator_resolves_from_request(self):
        ctx = ctx_for(subject_attributes={"urn:test:attr": [string("v")]})
        bag = designator(Category.SUBJECT, "urn:test:attr").evaluate(ctx)
        assert [v.value for v in bag] == ["v"]

    def test_missing_required_attribute_indeterminate(self):
        expr = designator(
            Category.SUBJECT, "urn:test:missing", must_be_present=True
        )
        with pytest.raises(Indeterminate) as err:
            expr.evaluate(ctx_for())
        assert err.value.status.code is StatusCode.MISSING_ATTRIBUTE

    def test_missing_optional_attribute_is_empty_bag(self):
        bag = designator(Category.SUBJECT, "urn:test:missing").evaluate(ctx_for())
        assert bag.is_empty()

    def test_attribute_finder_consulted(self):
        calls = []

        def finder(category, attribute_id, data_type):
            calls.append(attribute_id)
            return [string("found")]

        ctx = EvaluationContext(
            request=RequestContext.simple("s", "r", "a"), attribute_finder=finder
        )
        bag = designator(Category.SUBJECT, "urn:test:remote").evaluate(ctx)
        assert [v.value for v in bag] == ["found"]
        assert calls == ["urn:test:remote"]
        assert ctx.finder_calls == 1

    def test_apply_nested(self):
        expr = apply_(
            FUNCTION_PREFIX_1_0 + "integer-add",
            literal(integer(1)),
            apply_(
                FUNCTION_PREFIX_1_0 + "integer-multiply",
                literal(integer(2)),
                literal(integer(3)),
            ),
        )
        assert expr.evaluate(ctx_for()).value == 7

    def test_apply_type_error_becomes_indeterminate(self):
        expr = apply_(
            FUNCTION_PREFIX_1_0 + "integer-add",
            literal(string("oops")),
            literal(integer(1)),
        )
        with pytest.raises(Indeterminate):
            expr.evaluate(ctx_for())

    def test_any_of(self):
        ctx = ctx_for(
            subject_attributes={"urn:test:roles": [string("a"), string("b")]}
        )
        expr = AnyOfFunction(
            function_id=FUNCTION_PREFIX_1_0 + "string-equal",
            value=literal(string("b")),
            bag=designator(Category.SUBJECT, "urn:test:roles"),
        )
        assert expr.evaluate(ctx).value is True

    def test_all_of(self):
        ctx = ctx_for(
            subject_attributes={"urn:test:nums": [integer(5), integer(7)]}
        )
        expr = AllOfFunction(
            function_id=FUNCTION_PREFIX_1_0 + "integer-less-than",
            value=literal(integer(3)),
            bag=designator(Category.SUBJECT, "urn:test:nums", DataType.INTEGER),
        )
        assert expr.evaluate(ctx).value is True

    def test_condition_must_be_boolean(self):
        condition = Condition(literal(integer(1)))
        with pytest.raises(Indeterminate, match="boolean"):
            condition.evaluate(ctx_for())

    def test_condition_rejects_bag_result(self):
        condition = Condition(designator(Category.SUBJECT, "urn:test:x"))
        with pytest.raises(Indeterminate):
            condition.evaluate(
                ctx_for(subject_attributes={"urn:test:x": [string("v")]})
            )


class TestTargets:
    def test_empty_target_matches_everything(self):
        assert ANY_TARGET.evaluate(ctx_for()) is MatchResult.MATCH

    def test_subject_resource_action_target(self):
        target = subject_resource_action_target("alice", "doc", "read")
        assert target.evaluate(ctx_for()) is MatchResult.MATCH
        assert target.evaluate(ctx_for(subject="bob")) is MatchResult.NO_MATCH
        assert target.evaluate(ctx_for(action="write")) is MatchResult.NO_MATCH

    def test_any_of_disjunction(self):
        from repro.xacml import AllOf, AnyOf, SUBJECT_ID, Target

        target = Target(
            any_ofs=(
                AnyOf(
                    all_ofs=(
                        AllOf(
                            matches=(
                                match_equal(
                                    Category.SUBJECT, SUBJECT_ID, string("alice")
                                ),
                            )
                        ),
                        AllOf(
                            matches=(
                                match_equal(
                                    Category.SUBJECT, SUBJECT_ID, string("bob")
                                ),
                            )
                        ),
                    )
                ),
            )
        )
        assert target.evaluate(ctx_for(subject="alice")) is MatchResult.MATCH
        assert target.evaluate(ctx_for(subject="bob")) is MatchResult.MATCH
        assert target.evaluate(ctx_for(subject="carol")) is MatchResult.NO_MATCH

    def test_match_over_multivalued_bag(self):
        target = target_of(
            match_equal(Category.SUBJECT, "urn:test:role", string("admin"))
        )
        ctx = ctx_for(
            subject_attributes={
                "urn:test:role": [string("user"), string("admin")]
            }
        )
        assert target.evaluate(ctx) is MatchResult.MATCH


class TestRules:
    def test_rule_effect_on_match(self):
        rule = permit_rule("r", subject_resource_action_target("alice", "doc", "read"))
        assert rule.evaluate(ctx_for()).decision is Decision.PERMIT

    def test_rule_not_applicable_on_target_miss(self):
        rule = permit_rule("r", subject_resource_action_target(subject_id="bob"))
        assert rule.evaluate(ctx_for()).decision is Decision.NOT_APPLICABLE

    def test_rule_condition_false_not_applicable(self):
        rule = permit_rule(
            "r",
            condition=Condition(literal(boolean(False))),
        )
        assert rule.evaluate(ctx_for()).decision is Decision.NOT_APPLICABLE

    def test_rule_condition_error_indeterminate(self):
        rule = permit_rule(
            "r",
            condition=Condition(
                apply_(
                    FUNCTION_PREFIX_1_0 + "string-one-and-only",
                    designator(Category.SUBJECT, "urn:test:absent"),
                )
            ),
        )
        result = rule.evaluate(ctx_for())
        assert result.decision is Decision.INDETERMINATE

    def test_deny_rule(self):
        rule = deny_rule("r")
        assert rule.evaluate(ctx_for()).decision is Decision.DENY

    def test_effect_must_be_definitive(self):
        from repro.xacml.rules import Rule

        with pytest.raises(ValueError):
            Rule(rule_id="bad", effect=Decision.NOT_APPLICABLE)

    def test_attribute_equals_helper(self):
        rule = permit_rule(
            "r",
            condition=attribute_equals(
                Category.SUBJECT, "urn:test:group", string("staff")
            ),
        )
        ctx = ctx_for(subject_attributes={"urn:test:group": [string("staff")]})
        assert rule.evaluate(ctx).decision is Decision.PERMIT
        assert rule.evaluate(ctx_for()).decision is Decision.NOT_APPLICABLE


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

    def test_an_issuer_bound_designator_does_not_read_the_unbound_bag(self):
        from repro.xacml import Attribute

        request = RequestContext.simple("s", "r", "a")
        request.add(
            Category.SUBJECT,
            Attribute.of(SUBJECT_ROLE, string("nurse"), issuer="hospital-idp"),
        )
        ctx = EvaluationContext(request=request)
        assert [v.value for v in ctx.resolve(ROLE)] == ["nurse"]
        other = dataclasses.replace(ROLE, issuer="somebody-else")
        assert ctx.resolve(other).is_empty()

    def test_must_be_present_does_not_separate_designators(self):
        required = dataclasses.replace(ROLE, must_be_present=True)
        assert required.bag_key == ROLE.bag_key
        assert required != ROLE


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

    def test_value_compare_keeps_the_type_guard(self):
        # Only a finder can put a wrongly-typed value in a bag; the
        # equality function calls that an error, not a mismatch.
        match = match_equal(Category.SUBJECT, SUBJECT_ROLE, string("1"))
        wrong, _ = counting_finder([[integer(1)]])
        ctx = EvaluationContext(
            request=RequestContext.simple("s", "r", "a"), attribute_finder=wrong
        )
        assert match.evaluate(ctx) is MatchResult.INDETERMINATE

    def test_equality_of_another_type_than_the_designator_is_an_error(self):
        match = Match(
            match_function=FUNCTION_PREFIX_1_0 + "integer-equal",
            value=integer(1),
            designator=ROLE,
        )
        ctx = ctx_for(subject_attributes={SUBJECT_ROLE: [string("1")]})
        assert match.evaluate(ctx) is MatchResult.INDETERMINATE
        assert match.evaluate(ctx_for()) is MatchResult.NO_MATCH  # empty bag


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
