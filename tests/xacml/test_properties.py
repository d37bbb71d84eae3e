"""Property-based tests (hypothesis) for the XACML core.

Invariants checked:

* combining-algorithm algebra (deny/permit-overrides invariance under
  permutation; deny-overrides never yields Permit if any child denies);
* serializer/parser round-trip over randomly generated policies;
* target indexing never changes engine decisions — over conjunctive,
  disjunctive and ordered-comparison targets and multi-valued id bags;
* request cache keys are stable under attribute reordering.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.xacml import (
    ACTION_ID,
    AllOf,
    AnyOf,
    Attribute,
    AttributeDesignator,
    Category,
    DataType,
    Decision,
    Match,
    PdpEngine,
    Policy,
    PolicyStore,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    Target,
    combining,
    deny_rule,
    functions,
    match_equal,
    parse_policy,
    permit_rule,
    serialize_policy,
    string,
    subject_resource_action_target,
)

decisions = st.sampled_from(
    [Decision.PERMIT, Decision.DENY, Decision.NOT_APPLICABLE, Decision.INDETERMINATE]
)

subjects = st.sampled_from([f"s{i}" for i in range(6)])
resources = st.sampled_from([f"r{i}" for i in range(6)])
actions = st.sampled_from(["read", "write", "delete"])


def evaluables(items):
    return [lambda d=d: (d, None) for d in items]


class TestCombiningAlgebra:
    @given(st.lists(decisions, max_size=8), st.randoms())
    def test_deny_overrides_permutation_invariant(self, items, rnd):
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        baseline, _ = combiner(evaluables(items))
        shuffled = list(items)
        rnd.shuffle(shuffled)
        permuted, _ = combiner(evaluables(shuffled))
        assert baseline == permuted

    @given(st.lists(decisions, max_size=8), st.randoms())
    def test_permit_overrides_permutation_invariant(self, items, rnd):
        combiner = combining.lookup(combining.RULE_PERMIT_OVERRIDES)
        baseline, _ = combiner(evaluables(items))
        shuffled = list(items)
        rnd.shuffle(shuffled)
        permuted, _ = combiner(evaluables(shuffled))
        assert baseline == permuted

    @given(st.lists(decisions, max_size=8))
    def test_deny_overrides_never_permits_over_a_deny(self, items):
        combiner = combining.lookup(combining.RULE_DENY_OVERRIDES)
        decision, _ = combiner(evaluables(items))
        if Decision.DENY in items:
            assert decision is Decision.DENY
        if decision is Decision.PERMIT:
            assert Decision.DENY not in items
            assert Decision.INDETERMINATE not in items

    @given(st.lists(decisions, max_size=8))
    def test_permit_overrides_never_denies_over_a_permit(self, items):
        combiner = combining.lookup(combining.RULE_PERMIT_OVERRIDES)
        decision, _ = combiner(evaluables(items))
        if Decision.PERMIT in items:
            assert decision is Decision.PERMIT

    @given(st.lists(decisions, max_size=8))
    def test_first_applicable_matches_manual_scan(self, items):
        combiner = combining.lookup(combining.RULE_FIRST_APPLICABLE)
        decision, _ = combiner(evaluables(items))
        expected = Decision.NOT_APPLICABLE
        for item in items:
            if item is not Decision.NOT_APPLICABLE:
                expected = item
                break
        assert decision == expected

    @given(st.lists(decisions, max_size=8))
    def test_all_not_applicable_stays_not_applicable(self, items):
        if any(d is not Decision.NOT_APPLICABLE for d in items):
            return
        for algorithm in (
            combining.RULE_DENY_OVERRIDES,
            combining.RULE_PERMIT_OVERRIDES,
            combining.RULE_FIRST_APPLICABLE,
        ):
            decision, _ = combining.lookup(algorithm)(evaluables(items))
            assert decision is Decision.NOT_APPLICABLE


def subject_at_most(bound):
    """``subject-id <= bound``: an ordered comparison whose function id
    also ends in ``-equal``."""
    return Match(
        match_function=(
            functions.FUNCTION_PREFIX_1_0 + "string-greater-than-or-equal"
        ),
        value=string(bound),
        designator=AttributeDesignator(
            Category.SUBJECT, SUBJECT_ID, DataType.STRING
        ),
    )


def either(*matches):
    """One AnyOf group with a single-match alternative per argument."""
    return AnyOf(all_ofs=tuple(AllOf(matches=(m,)) for m in matches))


@st.composite
def random_targets(draw):
    """A policy target: mostly today's conjunctive shape, sometimes with
    a disjunctive or an ordered-comparison group in front of it."""
    conjunctive = subject_resource_action_target(
        draw(st.one_of(st.none(), subjects)),
        draw(st.one_of(st.none(), resources)),
        None,
    )
    shape = draw(st.sampled_from(["conjunctive", "disjunctive", "ordered"]))
    if shape == "disjunctive":
        extra = either(
            match_equal(
                Category.RESOURCE, RESOURCE_ID, string(draw(resources))
            ),
            match_equal(Category.SUBJECT, SUBJECT_ID, string(draw(subjects))),
        )
    elif shape == "ordered":
        extra = either(subject_at_most(draw(subjects)))
    else:
        return conjunctive
    return Target(any_ofs=(extra,) + conjunctive.any_ofs)


@st.composite
def random_policies(draw):
    rule_count = draw(st.integers(min_value=1, max_value=5))
    rules = []
    for index in range(rule_count):
        effect_permit = draw(st.booleans())
        subject = draw(st.one_of(st.none(), subjects))
        resource = draw(st.one_of(st.none(), resources))
        action = draw(st.one_of(st.none(), actions))
        target = subject_resource_action_target(subject, resource, action)
        builder = permit_rule if effect_permit else deny_rule
        rules.append(builder(f"rule-{index}", target=target))
    algorithm = draw(
        st.sampled_from(
            [
                combining.RULE_DENY_OVERRIDES,
                combining.RULE_PERMIT_OVERRIDES,
                combining.RULE_FIRST_APPLICABLE,
            ]
        )
    )
    policy_id = draw(st.uuids()).hex
    return Policy(
        policy_id=f"gen-{policy_id}",
        rules=tuple(rules),
        rule_combining=algorithm,
        target=draw(random_targets()),
    )


class TestRoundTripProperties:
    @given(random_policies())
    @settings(max_examples=60)
    def test_serialize_parse_roundtrip(self, policy):
        assert parse_policy(serialize_policy(policy)) == policy

    @given(random_policies(), subjects, resources, actions)
    @settings(max_examples=60)
    def test_roundtrip_preserves_decisions(self, policy, subject, resource, action):
        from repro.xacml import evaluate_element

        request = RequestContext.simple(subject, resource, action)
        original = evaluate_element(policy, request).decision
        reparsed = evaluate_element(
            parse_policy(serialize_policy(policy)), request
        ).decision
        assert original == reparsed


def request_with_subjects(subject_ids, resource, action):
    """A request whose subject-id bag carries every given value."""
    request = RequestContext()
    request.add(
        Category.SUBJECT,
        Attribute(SUBJECT_ID, tuple(string(s) for s in subject_ids)),
    )
    request.add(Category.RESOURCE, Attribute.of(RESOURCE_ID, string(resource)))
    request.add(Category.ACTION, Attribute.of(ACTION_ID, string(action)))
    return request


def decide_both_ways(policies, requests):
    """Per-request decisions of the indexed store and of the linear
    oracle, singly and as one batch."""
    indexed = PdpEngine(PolicyStore(indexed=True))
    linear = PdpEngine(PolicyStore(indexed=False))
    for policy in policies:
        indexed.add_policy(policy)
        linear.add_policy(policy)
    return (
        [indexed.decide(request) for request in requests],
        [r.decision for r in indexed.evaluate_batch(requests)],
        [linear.decide(request) for request in requests],
    )


class TestIndexingProperties:
    @given(
        st.lists(random_policies(), min_size=1, max_size=10, unique_by=lambda p: p.policy_id),
        st.lists(
            st.tuples(
                st.lists(subjects, min_size=1, max_size=3),
                resources,
                actions,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60)
    def test_indexing_never_changes_decisions(self, policies, triples):
        requests = [request_with_subjects(*triple) for triple in triples]
        single, batched, oracle = decide_both_ways(policies, requests)
        assert single == oracle
        assert batched == oracle

    @pytest.mark.parametrize(
        "target, subject_ids, resource",
        [
            # A disjunctive group mentions r1 but matches any resource
            # through its subject branch.
            (
                Target(
                    any_ofs=(
                        either(
                            match_equal(
                                Category.RESOURCE, RESOURCE_ID, string("r1")
                            ),
                            match_equal(
                                Category.SUBJECT, SUBJECT_ID, string("s1")
                            ),
                        ),
                    )
                ),
                ["s1"],
                "r2",
            ),
            # "m" >= subject-id is an ordering, not an equality on "m".
            (Target(any_ofs=(either(subject_at_most("m")),)), ["a"], "r1"),
            # The matching value is the bag's second.
            (subject_resource_action_target("s1"), ["s0", "s1"], "r1"),
        ],
        ids=["disjunctive", "ordered-comparison", "multi-valued"],
    )
    def test_index_counter_examples_decide_like_the_oracle(
        self, target, subject_ids, resource
    ):
        policy = Policy(
            policy_id="p", rules=(permit_rule("allow"),), target=target
        )
        request = request_with_subjects(subject_ids, resource, "read")
        single, batched, oracle = decide_both_ways([policy], [request])
        assert oracle == [Decision.PERMIT]
        assert single == batched == oracle


class TestCacheKeyProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["urn:a", "urn:b", "urn:c"]),
                st.text(
                    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                    min_size=1,
                    max_size=6,
                ),
            ),
            max_size=6,
        ),
        st.randoms(),
    )
    def test_cache_key_order_insensitive(self, pairs, rnd):
        def build(ordering):
            request = RequestContext.simple("s", "r", "read")
            for attr_id, value in ordering:
                request.add(
                    Category.SUBJECT, Attribute.of(attr_id, string(value))
                )
            return request

        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert build(pairs).cache_key() == build(shuffled).cache_key()
