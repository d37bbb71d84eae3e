"""Tests for the ABAC rule/policy builders."""

import pytest

from repro.models import AbacError, AbacPolicyBuilder, AbacRuleBuilder
from repro.xacml import (
    Decision,
    PdpEngine,
    RequestContext,
    SUBJECT_ROLE,
    string,
)


def engine_with(policy):
    engine = PdpEngine()
    engine.add_policy(policy)
    return engine


class TestAbacRuleBuilder:
    def test_effect_required(self):
        with pytest.raises(AbacError, match="effect"):
            AbacRuleBuilder("r").build()

    def test_subject_attribute_predicate(self):
        rule = (
            AbacRuleBuilder("r")
            .permit()
            .when_subject(SUBJECT_ROLE, "analyst")
            .build()
        )
        policy = AbacPolicyBuilder("p").rule(rule).default_deny().build()
        engine = engine_with(policy)
        yes = RequestContext.simple(
            "u", "r", "read", subject_attributes={SUBJECT_ROLE: [string("analyst")]}
        )
        no = RequestContext.simple(
            "u", "r", "read", subject_attributes={SUBJECT_ROLE: [string("intern")]}
        )
        assert engine.decide(yes) is Decision.PERMIT
        assert engine.decide(no) is Decision.DENY

    def test_multi_value_is_disjunction(self):
        rule = (
            AbacRuleBuilder("r")
            .permit()
            .when_subject(SUBJECT_ROLE, "analyst", "admin")
            .build()
        )
        policy = AbacPolicyBuilder("p").rule(rule).default_deny().build()
        engine = engine_with(policy)
        request = RequestContext.simple(
            "u", "r", "read", subject_attributes={SUBJECT_ROLE: [string("admin")]}
        )
        assert engine.decide(request) is Decision.PERMIT

    def test_empty_value_set_rejected(self):
        with pytest.raises(AbacError, match="empty value set"):
            AbacRuleBuilder("r").permit().when_subject(SUBJECT_ROLE).build()

    def test_action_restriction(self):
        rule = (
            AbacRuleBuilder("r").permit().when_action("read").build()
        )
        policy = AbacPolicyBuilder("p").rule(rule).default_deny().build()
        engine = engine_with(policy)
        assert engine.decide(RequestContext.simple("u", "r", "read")) is Decision.PERMIT
        assert engine.decide(RequestContext.simple("u", "r", "write")) is Decision.DENY

    def test_deny_rule(self):
        rule = (
            AbacRuleBuilder("r")
            .deny()
            .when_subject(SUBJECT_ROLE, "blacklisted")
            .build()
        )
        assert rule.effect is Decision.DENY


class TestAbacPolicyBuilder:
    def test_empty_policy_rejected(self):
        with pytest.raises(AbacError, match="no rules"):
            AbacPolicyBuilder("p").build()

    def test_resource_scoping(self):
        rule = AbacRuleBuilder("r").permit().build()
        policy = (
            AbacPolicyBuilder("p").for_resource("only-this").rule(rule).build()
        )
        engine = engine_with(policy)
        assert (
            engine.decide(RequestContext.simple("u", "only-this", "read"))
            is Decision.PERMIT
        )
        assert (
            engine.decide(RequestContext.simple("u", "other", "read"))
            is Decision.NOT_APPLICABLE
        )

    def test_description_and_combining_preserved(self):
        from repro.xacml import combining

        rule = AbacRuleBuilder("r").permit().build()
        policy = AbacPolicyBuilder(
            "p",
            rule_combining=combining.RULE_PERMIT_OVERRIDES,
            description="test policy",
        ).rule(rule).build()
        assert policy.rule_combining == combining.RULE_PERMIT_OVERRIDES
        assert policy.description == "test policy"
