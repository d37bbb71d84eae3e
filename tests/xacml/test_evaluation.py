"""Tests for expressions, targets, rules: the evaluation core."""

import pytest

from repro.xacml import (
    ANY_TARGET,
    AllOfFunction,
    AnyOfFunction,
    Category,
    Condition,
    DataType,
    Decision,
    EvaluationContext,
    Indeterminate,
    MatchResult,
    RequestContext,
    StatusCode,
    apply_,
    attribute_equals,
    boolean,
    deny_rule,
    designator,
    integer,
    literal,
    match_equal,
    permit_rule,
    string,
    subject_resource_action_target,
    target_of,
)
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
