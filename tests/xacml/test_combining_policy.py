"""Combining algorithms, policies and policy sets.  Their decisions,
status codes and obligations are judged by the reference semantics
(``test_evaluation_reference.py``, and the Appendix C property of
``test_properties.py``); nothing there judges the reference, so the
known answers here pin both.  Here too are laziness, the construction
checks and the one status message a combiner writes."""

import pytest
from reference import xacml

from repro.xacml import (
    Category,
    Condition,
    Decision,
    Obligation,
    ObligationAssignment,
    PdpEngine,
    Policy,
    PolicySet,
    RequestContext,
    StatusCode,
    apply_,
    combining,
    deny_rule,
    designator,
    evaluate_element,
    permit_rule,
    string,
    subject_resource_action_target as sra,
)
from repro.xacml.functions import FUNCTION_PREFIX_1_0

P, D = Decision.PERMIT, Decision.DENY
N, I = Decision.NOT_APPLICABLE, Decision.INDETERMINATE
#: A combiner fed child outcomes: algorithm, outcomes, decision.
OUTCOME_CELLS = {
    "deny_overrides_deny_wins": (combining.RULE_DENY_OVERRIDES, (P, D, P), D),
    "deny_overrides_all_permit": (combining.RULE_DENY_OVERRIDES, (P, N), P),
    "deny_overrides_indeterminate_masks_permit": (combining.RULE_DENY_OVERRIDES, (I, P), I),
    "permit_overrides_permit_wins": (combining.RULE_PERMIT_OVERRIDES, (D, P), P),
    "permit_overrides_deny_when_no_permit": (combining.RULE_PERMIT_OVERRIDES, (D, N), D),
    "first_applicable_takes_first_definitive": (combining.RULE_FIRST_APPLICABLE, (N, D, P), D),
    "first_applicable_leading_indeterminate_stops": (combining.RULE_FIRST_APPLICABLE, (I, P), I),
    "first_applicable_empty": (combining.RULE_FIRST_APPLICABLE, (), N),
    "only_one_applicable_single": (combining.POLICY_ONLY_ONE_APPLICABLE, (N, P), P),
    "only_one_applicable_multiple_is_error": (combining.POLICY_ONLY_ONE_APPLICABLE, (P, P), I),
    **{
        f"empty_children_are_not_applicable-{algorithm.rsplit(':', 1)[1]}": (algorithm, (), N)
        for algorithm in (
            combining.POLICY_DENY_OVERRIDES,
            combining.POLICY_PERMIT_OVERRIDES,
            combining.POLICY_FIRST_APPLICABLE,
            combining.POLICY_ONLY_ONE_APPLICABLE,
        )
    },
}


@pytest.mark.parametrize(
    "algorithm, outcomes, decision", OUTCOME_CELLS.values(), ids=OUTCOME_CELLS.keys()
)
def test_a_combiner_over_outcomes(algorithm, outcomes, decision):
    assert combining.lookup(algorithm)((o, None) for o in outcomes)[0] is decision


LOG = Obligation("urn:test:log", P, (ObligationAssignment("level", string("info")),))
ON_DENY = Obligation("urn:test:on-deny", D)
ALLOW, REFUSE = permit_rule("r"), deny_rule("r")
BOB_FIRST = Policy(
    "p",
    (deny_rule("deny-bob", sra("bob")), permit_rule("allow-all")),
    rule_combining=combining.RULE_FIRST_APPLICABLE,
)
NESTED = PolicySet(
    "outer",
    (Policy("inner", (permit_rule("r", sra("alice")),)),),
    policy_combining=combining.POLICY_FIRST_APPLICABLE,
)
ONE_AND_ONLY = apply_(
    FUNCTION_PREFIX_1_0 + "string-one-and-only", designator(Category.SUBJECT, "urn:test:none")
)
BROKEN = Policy("broken", (permit_rule("r", condition=Condition(ONE_AND_ONLY)),))
EXCLUSIVE = PolicySet(
    "exclusive",
    (
        Policy("permit-read", (permit_rule("allow"),), target=sra(action_id="read")),
        Policy("audit-doc", (permit_rule("log-and-allow"),), target=sra(resource_id="doc")),
    ),
    policy_combining=combining.POLICY_ONLY_ONE_APPLICABLE,
)
#: A policy or policy set over the subject's read of doc: element,
#: subject, decision, obligations.
ELEMENT_CELLS = {
    "policy_target_gates_rules": (Policy("p", (ALLOW,), target=sra(None, "other")), "alice", N, ()),
    "first_applicable_ordering-bob": (BOB_FIRST, "bob", D, ()),
    "first_applicable_ordering-alice": (BOB_FIRST, "alice", P, ()),
    "obligations_attached_on_matching_decision": (
        Policy("p", (ALLOW,), obligations=(LOG,)), "alice", P, (LOG,)
    ),
    "obligations_not_attached_on_other_decision": (
        Policy("p", (ALLOW,), obligations=(ON_DENY,)), "alice", P, ()
    ),
    "nested_evaluation-alice": (NESTED, "alice", P, ()),
    "nested_evaluation-eve": (NESTED, "eve", N, ()),
    "deny_overrides_across_policies": (
        PolicySet("set", (Policy("allow", (ALLOW,)), Policy("deny", (REFUSE,)))), "alice", D, ()
    ),
    "child_obligations_flow_up_only_for_final_decision": (
        PolicySet(
            "s",
            (
                Policy("permit-p", (ALLOW,), obligations=(LOG,)),
                Policy("deny-p", (REFUSE,), obligations=(ON_DENY,)),
            ),
        ),
        "alice",
        D,
        (ON_DENY,),
    ),
    # The policy-deny-overrides ledger entry: the standard says Deny.
    "indeterminate_condition_propagates": (PolicySet("s", (BROKEN,)), "alice", I, ()),
    "only_one_applicable_two_matching_policies_end_to_end": (EXCLUSIVE, "alice", I, ()),
}


@pytest.mark.parametrize(
    "element, subject, decision, obligations",
    ELEMENT_CELLS.values(),
    ids=ELEMENT_CELLS.keys(),
)
def test_a_known_answer(element, subject, decision, obligations):
    """The engine's answer, and the reference's as the ledger reads it."""
    request = RequestContext.simple(subject, "doc", "read")
    got = evaluate_element(element, request)
    expected = xacml.evaluate(xacml.Context(request, readings=xacml.ENGINE), element)
    assert (got.decision, got.obligations) == (decision, obligations)
    assert (expected[0], expected[2]) == (decision, obligations)


def recording(calls, *decisions):
    """Child outcomes the way a combiner is fed them, lazily, noting each
    as it is pulled."""
    for decision in decisions:
        calls.append(decision)
        yield decision, None


class TestCombiningAlgorithms:
    def test_deny_overrides_short_circuits(self):
        calls = []
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        combiner(recording(calls, Decision.DENY, Decision.PERMIT))
        assert calls == [Decision.DENY]

    def test_unknown_algorithm(self):
        with pytest.raises(combining.CombiningError):
            combining.lookup("urn:bogus")

    def test_first_applicable_leading_indeterminate_short_circuits(self):
        calls = []
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        combiner(recording(calls, Decision.INDETERMINATE, Decision.DENY))
        assert calls == [Decision.INDETERMINATE]

    def test_the_only_one_applicable_status_message(self):
        engine = PdpEngine(policy_combining=combining.POLICY_ONLY_ONE_APPLICABLE)
        engine.add_policies(
            [Policy(name, (permit_rule("allow"),)) for name in ("first", "second")]
        )
        response = engine.evaluate(RequestContext.simple("alice", "doc", "read"))
        status = response.response.result.status
        assert (status.code, status.message) == (
            StatusCode.PROCESSING_ERROR,
            "more than one policy applicable under only-one-applicable",
        )


class TestPolicy:
    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule id"):
            Policy(policy_id="p", rules=(permit_rule("r"), deny_rule("r")))

    def test_empty_policy_id_rejected(self):
        with pytest.raises(ValueError):
            Policy(policy_id="", rules=())

    def test_bad_combining_algorithm_rejected_early(self):
        with pytest.raises(combining.CombiningError):
            Policy(policy_id="p", rules=(), rule_combining="urn:bogus")

    def test_obligation_must_attach_to_definitive_decision(self):
        with pytest.raises(ValueError):
            Obligation(
                obligation_id="urn:test:x", fulfill_on=Decision.NOT_APPLICABLE
            )


class TestPolicySet:
    def test_duplicate_children_rejected(self):
        policy = Policy(policy_id="same", rules=(permit_rule("r"),))
        with pytest.raises(ValueError, match="duplicate child"):
            PolicySet(policy_set_id="s", children=(policy, policy))

    def test_flatten(self):
        p1 = Policy(policy_id="p1", rules=(permit_rule("r"),))
        p2 = Policy(policy_id="p2", rules=(deny_rule("r"),))
        nested = PolicySet(policy_set_id="inner", children=(p2,))
        outer = PolicySet(policy_set_id="outer", children=(p1, nested))
        assert [p.policy_id for p in outer.flatten()] == ["p1", "p2"]
