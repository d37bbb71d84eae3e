"""Tests for combining algorithms, policies and policy sets."""

import pytest

from repro.xacml import (
    Condition,
    Decision,
    Obligation,
    ObligationAssignment,
    Policy,
    PolicySet,
    RequestContext,
    combining,
    deny_rule,
    evaluate_element,
    permit_rule,
    string,
    subject_resource_action_target,
)


def make_children(*decisions):
    """Child outcomes the way a combiner is fed them: lazily."""
    return ((decision, None) for decision in decisions)


def recording(calls, *decisions):
    """Like ``make_children``, noting each outcome as it is pulled."""
    for decision in decisions:
        calls.append(decision)
        yield decision, None


class TestCombiningAlgorithms:
    def test_deny_overrides_deny_wins(self):
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        decision, _ = combiner(
            make_children(Decision.PERMIT, Decision.DENY, Decision.PERMIT)
        )
        assert decision is Decision.DENY

    def test_deny_overrides_all_permit(self):
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        decision, _ = combiner(make_children(Decision.PERMIT, Decision.NOT_APPLICABLE))
        assert decision is Decision.PERMIT

    def test_deny_overrides_indeterminate_masks_permit(self):
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        decision, _ = combiner(
            make_children(Decision.INDETERMINATE, Decision.PERMIT)
        )
        assert decision is Decision.INDETERMINATE

    def test_permit_overrides_permit_wins(self):
        combiner = combining.lookup(combining.RULE_PERMIT_OVERRIDES)
        decision, _ = combiner(
            make_children(Decision.DENY, Decision.PERMIT)
        )
        assert decision is Decision.PERMIT

    def test_permit_overrides_deny_when_no_permit(self):
        combiner = combining.lookup(combining.RULE_PERMIT_OVERRIDES)
        decision, _ = combiner(make_children(Decision.DENY, Decision.NOT_APPLICABLE))
        assert decision is Decision.DENY

    def test_first_applicable_takes_first_definitive(self):
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        decision, _ = combiner(
            make_children(Decision.NOT_APPLICABLE, Decision.DENY, Decision.PERMIT)
        )
        assert decision is Decision.DENY

    def test_first_applicable_empty(self):
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        decision, _ = combiner([])
        assert decision is Decision.NOT_APPLICABLE

    def test_only_one_applicable_single(self):
        combiner = combining.lookup(combining.POLICY_ONLY_ONE_APPLICABLE)
        decision, _ = combiner(
            make_children(Decision.NOT_APPLICABLE, Decision.PERMIT)
        )
        assert decision is Decision.PERMIT

    def test_only_one_applicable_multiple_is_error(self):
        combiner = combining.lookup(combining.POLICY_ONLY_ONE_APPLICABLE)
        decision, status = combiner(
            make_children(Decision.PERMIT, Decision.PERMIT)
        )
        assert decision is Decision.INDETERMINATE
        assert "more than one" in status.message

    def test_deny_overrides_short_circuits(self):
        calls = []
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        combiner(recording(calls, Decision.DENY, Decision.PERMIT))
        assert calls == [Decision.DENY]

    def test_unknown_algorithm(self):
        with pytest.raises(combining.CombiningError):
            combining.lookup("urn:bogus")

    def test_first_applicable_leading_indeterminate_stops(self):
        # An Indeterminate is "applicable" for first-applicable: iteration
        # stops there and later definitive children never decide.
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        decision, _ = combiner(
            make_children(Decision.INDETERMINATE, Decision.PERMIT)
        )
        assert decision is Decision.INDETERMINATE

    def test_first_applicable_leading_indeterminate_short_circuits(self):
        calls = []
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        combiner(recording(calls, Decision.INDETERMINATE, Decision.DENY))
        assert calls == [Decision.INDETERMINATE]

    @pytest.mark.parametrize(
        "algorithm",
        [
            combining.POLICY_DENY_OVERRIDES,
            combining.POLICY_PERMIT_OVERRIDES,
            combining.POLICY_FIRST_APPLICABLE,
            combining.POLICY_ONLY_ONE_APPLICABLE,
        ],
    )
    def test_empty_children_are_not_applicable(self, algorithm):
        decision, status = combining.lookup(algorithm)([])
        assert decision is Decision.NOT_APPLICABLE

    def test_only_one_applicable_two_matching_policies_end_to_end(self):
        permit = Policy(
            policy_id="permit-read",
            target=subject_resource_action_target(action_id="read"),
            rules=(permit_rule("allow"),),
        )
        audit = Policy(
            policy_id="audit-doc",
            target=subject_resource_action_target(resource_id="doc"),
            rules=(permit_rule("log-and-allow"),),
        )
        outer = PolicySet(
            policy_set_id="exclusive",
            children=(permit, audit),
            policy_combining=combining.POLICY_ONLY_ONE_APPLICABLE,
        )
        result = evaluate_element(
            outer, RequestContext.simple("alice", "doc", "read")
        )
        assert result.decision is Decision.INDETERMINATE
        assert "more than one" in result.status.message


def req(subject="alice", resource="doc", action="read"):
    return RequestContext.simple(subject, resource, action)


class TestPolicy:
    def test_policy_target_gates_rules(self):
        policy = Policy(
            policy_id="p",
            rules=(permit_rule("r"),),
            target=subject_resource_action_target(resource_id="other"),
        )
        assert evaluate_element(policy, req()).decision is Decision.NOT_APPLICABLE

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):
            Policy(policy_id="p", rules=(permit_rule("r"), deny_rule("r")))

    def test_empty_policy_id_rejected(self):
        with pytest.raises(ValueError):
            Policy(policy_id="", rules=())

    def test_bad_combining_algorithm_rejected_early(self):
        with pytest.raises(combining.CombiningError):
            Policy(policy_id="p", rules=(), rule_combining="urn:bogus")

    def test_first_applicable_ordering(self):
        policy = Policy(
            policy_id="p",
            rules=(
                deny_rule("deny-bob", subject_resource_action_target(subject_id="bob")),
                permit_rule("allow-all"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        assert evaluate_element(policy, req(subject="bob")).decision is Decision.DENY
        assert evaluate_element(policy, req()).decision is Decision.PERMIT

    def test_obligations_attached_on_matching_decision(self):
        obligation = Obligation(
            obligation_id="urn:test:log",
            fulfill_on=Decision.PERMIT,
            assignments=(ObligationAssignment("level", string("info")),),
        )
        policy = Policy(
            policy_id="p",
            rules=(permit_rule("r"),),
            obligations=(obligation,),
        )
        result = evaluate_element(policy, req())
        assert result.obligations == (obligation,)

    def test_obligations_not_attached_on_other_decision(self):
        obligation = Obligation(
            obligation_id="urn:test:log", fulfill_on=Decision.DENY
        )
        policy = Policy(
            policy_id="p", rules=(permit_rule("r"),), obligations=(obligation,)
        )
        assert evaluate_element(policy, req()).obligations == ()

    def test_obligation_must_attach_to_definitive_decision(self):
        with pytest.raises(ValueError):
            Obligation(
                obligation_id="urn:test:x", fulfill_on=Decision.NOT_APPLICABLE
            )


class TestPolicySet:
    def test_nested_evaluation(self):
        inner = Policy(
            policy_id="inner",
            rules=(permit_rule("r", subject_resource_action_target(subject_id="alice")),),
        )
        outer = PolicySet(
            policy_set_id="outer",
            children=(inner,),
            policy_combining=combining.POLICY_FIRST_APPLICABLE,
        )
        assert evaluate_element(outer, req()).decision is Decision.PERMIT
        assert (
            evaluate_element(outer, req(subject="eve")).decision
            is Decision.NOT_APPLICABLE
        )

    def test_deny_overrides_across_policies(self):
        allow = Policy(policy_id="allow", rules=(permit_rule("r"),))
        deny = Policy(policy_id="deny", rules=(deny_rule("r"),))
        both = PolicySet(
            policy_set_id="set",
            children=(allow, deny),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
        assert evaluate_element(both, req()).decision is Decision.DENY

    def test_duplicate_children_rejected(self):
        policy = Policy(policy_id="same", rules=(permit_rule("r"),))
        with pytest.raises(ValueError, match="duplicate child"):
            PolicySet(policy_set_id="s", children=(policy, policy))

    def test_child_obligations_flow_up_only_for_final_decision(self):
        ob_permit = Obligation("urn:test:on-permit", Decision.PERMIT)
        ob_deny = Obligation("urn:test:on-deny", Decision.DENY)
        permit_policy = Policy(
            policy_id="permit-p",
            rules=(permit_rule("r"),),
            obligations=(ob_permit,),
        )
        deny_policy = Policy(
            policy_id="deny-p", rules=(deny_rule("r"),), obligations=(ob_deny,)
        )
        combined = PolicySet(
            policy_set_id="s",
            children=(permit_policy, deny_policy),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
        result = evaluate_element(combined, req())
        assert result.decision is Decision.DENY
        assert [o.obligation_id for o in result.obligations] == ["urn:test:on-deny"]

    def test_flatten(self):
        p1 = Policy(policy_id="p1", rules=(permit_rule("r"),))
        p2 = Policy(policy_id="p2", rules=(deny_rule("r"),))
        nested = PolicySet(policy_set_id="inner", children=(p2,))
        outer = PolicySet(policy_set_id="outer", children=(p1, nested))
        assert [p.policy_id for p in outer.flatten()] == ["p1", "p2"]

    def test_indeterminate_condition_propagates(self):
        from repro.xacml import Category, apply_, designator
        from repro.xacml.functions import FUNCTION_PREFIX_1_0

        broken = Policy(
            policy_id="broken",
            rules=(
                permit_rule(
                    "r",
                    condition=Condition(
                        apply_(
                            FUNCTION_PREFIX_1_0 + "string-one-and-only",
                            designator(Category.SUBJECT, "urn:test:none"),
                        )
                    ),
                ),
            ),
        )
        outer = PolicySet(
            policy_set_id="s",
            children=(broken,),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
        assert evaluate_element(outer, req()).decision is Decision.INDETERMINATE
