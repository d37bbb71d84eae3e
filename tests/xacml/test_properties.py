"""Property-based tests (hypothesis) for the XACML core.

Invariants checked:

* combining-algorithm algebra (deny/permit-overrides invariance under
  permutation; deny-overrides never yields Permit if any child denies);
* serializer/parser round-trip over randomly generated policies;
* target indexing never changes engine decisions — over conjunctive,
  disjunctive and ordered-comparison targets, multi-valued id bags and
  requests that leave a canonical id to the PIP finder;
* the property those are instances of: the indexed store hands a
  request every element whose target does not evaluate NO_MATCH — over
  multi-group, multi-alternative, typed, issuer-bound and ill-typed
  targets, and finders that supply the canonical ids;
* under interleaved add / remove / replace the indexed store keeps
  deciding like the linear oracle and keeps insertion order, and
  leaves no bag or residue behind;
* request cache keys are stable under attribute reordering;
* sharing policy leaves is unobservable: the same policy built with the
  leaf memos warm and cold is equal, serializes to the same bytes and
  decides alike; parsing shares its leaves with building; the memo keys
  separate whatever the serializer writes apart, and remember no
  exception; every slotted node still copies, pickles and replaces,
  and takes no stray attribute;
* a policy bound to registry functions pickles: it comes back equal
  and decides alike; a node bound to any registered function comes back
  bound to that same function.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from test_evaluation_oracle import (
    finders as oracle_finders,
    requests as oracle_requests,
    targets as oracle_targets,
)

from repro.workloads import Population, PopulationSpec
from repro.xacml import (
    ACTION_ID,
    AllOf,
    AnyOf,
    Attribute,
    AttributeDesignator,
    Category,
    DataType,
    Decision,
    EvaluationContext,
    Match,
    MatchResult,
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
from repro.xacml.attributes import (
    LEAF_MEMO_SIZE,
    SUBJECT_ROLE,
    AttributeValue,
    _designator_of,
    any_uri,
    double,
    integer,
    time_of_day,
)
from repro.xacml.expressions import (
    AllOfFunction,
    AnyOfFunction,
    Apply,
    Condition,
    Designator,
    Literal,
    _condition_of,
    attribute_equals,
    designator,
)
from repro.xacml.parser import ParseError
from repro.xacml.policy import PolicyReference, PolicyResult, PolicySet
from repro.xacml.rules import Rule, RuleResult
from repro.xacml.targets import _match_of, _single_of, target_of

decisions = st.sampled_from(
    [Decision.PERMIT, Decision.DENY, Decision.NOT_APPLICABLE, Decision.INDETERMINATE]
)

subjects = st.sampled_from([f"s{i}" for i in range(6)])
resources = st.sampled_from([f"r{i}" for i in range(6)])
actions = st.sampled_from(["read", "write", "delete"])


def evaluables(items):
    """Child outcomes the way a combiner is fed them: lazily."""
    return ((decision, None) for decision in items)


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
    """A policy target: mostly today's conjunctive shape — ``(resource,
    action)`` and ``(subject, resource, action)`` among its draws, so
    most elements carry a residue — sometimes with a disjunctive or an
    ordered-comparison group in front of it, or a group of several
    alternatives behind it (a residue group that reads one bag twice,
    or two bags)."""
    conjunctive = subject_resource_action_target(
        draw(st.one_of(st.none(), subjects)),
        draw(st.one_of(st.none(), resources)),
        draw(st.one_of(st.none(), actions)),
    )
    shape = draw(
        st.sampled_from(["conjunctive", "disjunctive", "ordered", "alternatives"])
    )
    if shape == "alternatives":
        extra = either(
            match_equal(Category.ACTION, ACTION_ID, string(draw(actions))),
            draw(
                st.one_of(
                    actions.map(
                        lambda a: match_equal(Category.ACTION, ACTION_ID, string(a))
                    ),
                    subjects.map(
                        lambda s: match_equal(Category.SUBJECT, SUBJECT_ID, string(s))
                    ),
                )
            ),
        )
        return Target(any_ofs=conjunctive.any_ofs + (extra,))
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
    """A request whose subject-id bag carries every given value.  No
    subject ids, or None for the resource or the action, omits that
    identifier from the request altogether."""
    request = RequestContext()
    if subject_ids:
        request.add(
            Category.SUBJECT,
            Attribute(SUBJECT_ID, tuple(string(s) for s in subject_ids)),
        )
    if resource is not None:
        request.add(
            Category.RESOURCE, Attribute.of(RESOURCE_ID, string(resource))
        )
    if action is not None:
        request.add(Category.ACTION, Attribute.of(ACTION_ID, string(action)))
    return request


#: (subject ids, resource, action) of one request; any of the three may
#: be left out, for the PIP finder to supply.
request_triples = st.tuples(
    st.lists(subjects, max_size=3),
    st.one_of(st.none(), resources),
    st.one_of(st.none(), actions),
)


def finder_supplying(subject=None, resource=None, action=None):
    """A PIP finder that knows one value per canonical identifier; the
    engine only asks it about identifiers the request omits."""
    supplied = {
        (Category.SUBJECT, SUBJECT_ID): subject,
        (Category.RESOURCE, RESOURCE_ID): resource,
        (Category.ACTION, ACTION_ID): action,
    }

    def finder(category, attribute_id, data_type):
        value = supplied.get((category, attribute_id))
        if value is None or data_type is not DataType.STRING:
            return []
        return [string(value)]

    return finder


def decide_both_ways(policies, requests, finder=None):
    """Per-request decisions of the indexed store and of the linear
    oracle, singly and as one batch."""
    indexed = PdpEngine(PolicyStore(indexed=True), attribute_finder=finder)
    linear = PdpEngine(PolicyStore(indexed=False), attribute_finder=finder)
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
        st.lists(request_triples, min_size=1, max_size=3),
        st.tuples(subjects, resources, actions),
    )
    @settings(max_examples=60)
    def test_indexing_never_changes_decisions(self, policies, triples, supplied):
        requests = [request_with_subjects(*triple) for triple in triples]
        single, batched, oracle = decide_both_ways(
            policies, requests, finder_supplying(*supplied)
        )
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
            # The request leaves the subject id to the finder.
            (subject_resource_action_target("s1"), [], "r1"),
        ],
        ids=["disjunctive", "ordered-comparison", "multi-valued", "omitted-id"],
    )
    def test_index_counter_examples_decide_like_the_oracle(
        self, target, subject_ids, resource
    ):
        policy = Policy(
            policy_id="p", rules=(permit_rule("allow"),), target=target
        )
        request = request_with_subjects(subject_ids, resource, "read")
        single, batched, oracle = decide_both_ways(
            [policy], [request], finder_supplying(subject="s1")
        )
        assert oracle == [Decision.PERMIT]
        assert single == batched == oracle

    @pytest.mark.parametrize(
        "designator, literal, request_resource, siblings, finds, expected",
        [
            # The request carries resource-id only as anyURI: the string
            # bag the target reads is empty and the finder fills it.
            (
                AttributeDesignator(Category.RESOURCE, RESOURCE_ID, DataType.STRING),
                string("res-1"),
                any_uri("res-2"),
                (),
                True,
                Decision.DENY,
            ),
            # The designator names an issuer: the un-issued res-2 is not
            # in the bag it reads.
            (
                AttributeDesignator(
                    Category.RESOURCE, RESOURCE_ID, DataType.STRING, issuer="hr"
                ),
                string("res-1"),
                string("res-2"),
                (),
                True,
                Decision.DENY,
            ),
            # string-equal over an anyURI literal raises on every
            # compare: Indeterminate (a PEP denies), whatever a sibling
            # permits.  Membership in EQUALITY_FUNCTIONS is not
            # "compares by value".
            (
                AttributeDesignator(Category.RESOURCE, RESOURCE_ID, DataType.STRING),
                any_uri("res-1"),
                string("res-2"),
                (Policy(policy_id="permit-all", rules=(permit_rule("p"),)),),
                False,
                Decision.INDETERMINATE,
            ),
        ],
        ids=["typed", "issuer-bound", "ill-typed-literal"],
    )
    def test_index_keys_on_the_bag_the_target_reads(
        self, designator, literal, request_resource, siblings, finds, expected
    ):
        """Three requests the first-identifier index lost (the first two
        lose a Deny): it keyed a bag the engine does not read."""
        deny = Policy(
            policy_id="deny-res-1",
            rules=(deny_rule("d"),),
            target=Target(
                any_ofs=(
                    either(
                        Match(
                            match_function=functions.FUNCTION_PREFIX_1_0
                            + "string-equal",
                            value=literal,
                            designator=designator,
                        )
                    ),
                )
            ),
        )
        request = RequestContext()
        request.add(Category.SUBJECT, Attribute.of(SUBJECT_ID, string("s")))
        request.add(Category.RESOURCE, Attribute.of(RESOURCE_ID, request_resource))
        request.add(Category.ACTION, Attribute.of(ACTION_ID, string("read")))
        single, batched, oracle = decide_both_ways(
            [deny, *siblings],
            [request],
            finder_supplying(resource="res-1") if finds else None,
        )
        assert oracle == [expected]
        assert single == batched == oracle

    def test_an_omitted_residue_id_is_a_wildcard_too(self):
        """Posted under the resource, filtered by the action — which
        this request leaves to the finder: absent is not "no match"."""
        policy = Policy(
            policy_id="p",
            rules=(permit_rule("allow"),),
            target=subject_resource_action_target(
                resource_id="r1", action_id="read"
            ),
        )
        request = request_with_subjects(["s1"], "r1", None)
        single, batched, oracle = decide_both_ways(
            [policy], [request], finder_supplying(action="read")
        )
        assert oracle == [Decision.PERMIT]
        assert single == batched == oracle

    @given(
        st.lists(oracle_targets, min_size=1, max_size=6),
        oracle_requests(),
        oracle_finders(),
    )
    @settings(max_examples=400, deadline=None)
    def test_candidates_hold_every_element_that_can_match(
        self, targets, request, finder
    ):
        """What a filter must hold, and more than equal decisions: an
        element is dropped only where its target is *definitely*
        NO_MATCH — never where it is Indeterminate, and never on the
        strength of a bag the request does not carry."""
        store = PolicyStore(indexed=True)
        for index, target in enumerate(targets):
            store.add(
                Policy(
                    policy_id=f"p{index}",
                    rules=(permit_rule("allow"),),
                    target=target,
                )
            )
        handed = store.candidates(request)
        assert is_subsequence(handed, store.elements())
        for element in store.elements():
            outcome = element.target.evaluate(
                EvaluationContext(request=request, attribute_finder=finder)
            )
            if outcome is not MatchResult.NO_MATCH:
                assert any(element is held for held in handed), (
                    element.policy_id,
                    outcome,
                )


def is_subsequence(part, whole):
    remaining = iter(whole)
    return all(any(item is other for other in remaining) for item in part)


class StoreChurn(RuleBasedStateMachine):
    """PAP churn against one indexed store and the linear oracle.

    A plain dict is the model of the store's contents and order
    (``replace`` is ``pop`` + insert: the element re-queues at the end).
    """

    slots = st.sampled_from([f"slot-{index}" for index in range(6)])

    @initialize(
        algorithm=st.sampled_from(
            [
                combining.POLICY_DENY_OVERRIDES,
                combining.POLICY_FIRST_APPLICABLE,
                combining.POLICY_ONLY_ONE_APPLICABLE,
            ]
        ),
        supplied=st.tuples(subjects, resources, actions),
    )
    def build(self, algorithm, supplied):
        finder = finder_supplying(*supplied)
        self.indexed = PdpEngine(PolicyStore(indexed=True), algorithm, finder)
        self.oracle = PdpEngine(PolicyStore(indexed=False), algorithm, finder)
        self.model = {}

    @rule(policy=random_policies(), slot=slots)
    def add(self, policy, slot):
        policy = dataclasses.replace(policy, policy_id=slot)
        if policy.policy_id in self.model:
            for engine in (self.indexed, self.oracle):
                with pytest.raises(ValueError, match="duplicate"):
                    engine.store.add(policy)
            return
        self.model[policy.policy_id] = policy
        self.indexed.store.add(policy)
        self.oracle.store.add(policy)

    @rule(slot=slots)
    def remove(self, slot):
        # Unknown ids included: removing one is a no-op.
        self.model.pop(slot, None)
        self.indexed.store.remove(slot)
        self.oracle.store.remove(slot)

    @rule(policy=random_policies(), slot=slots)
    def replace(self, policy, slot):
        policy = dataclasses.replace(policy, policy_id=slot)
        self.model.pop(policy.policy_id, None)
        self.model[policy.policy_id] = policy
        self.indexed.store.replace(policy)
        self.oracle.store.replace(policy)

    def check(self, request, response, expected):
        store = self.indexed.store
        assert response.decision == expected.decision
        assert response.response.result.status == expected.response.result.status
        assert (
            response.stats.policies_skipped_by_index
            + response.stats.candidate_set_size
            == len(store)
        )
        # Same order as elements(): first-applicable and
        # only-one-applicable combining depend on it.
        assert is_subsequence(store.candidates(request), store.elements())

    @rule(triple=request_triples)
    def evaluate(self, triple):
        request = request_with_subjects(*triple)
        self.check(
            request,
            self.indexed.evaluate(request),
            self.oracle.evaluate(request),
        )

    @rule(triples=st.lists(request_triples, min_size=1, max_size=4))
    def evaluate_batch(self, triples):
        requests = [request_with_subjects(*triple) for triple in triples]
        for request, response, expected in zip(
            requests,
            self.indexed.evaluate_batch(requests),
            self.oracle.evaluate_batch(requests),
            strict=True,
        ):
            self.check(request, response, expected)

    @invariant()
    def holds_the_model_in_order(self):
        held = list(self.model.values())
        assert self.indexed.store.elements() == held
        assert self.oracle.store.elements() == held
        assert len(self.indexed.store) == len(held)

    def teardown(self):
        for identifier in list(self.model):
            self.indexed.store.remove(identifier)
        assert self.indexed.store.shard_stats() == {
            "elements": 0,
            "unindexable": 0,
            "index_keys": 0,
        }
        # Nothing outlives its last user: no bag, no shared residue.
        assert self.indexed.store._index == {}
        assert self.indexed.store._residues == {}


StoreChurn.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestStoreChurn = StoreChurn.TestCase


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


# -- shared policy leaves (ISSUE 24) --------------------------------------------------

#: The four policy-side constructor memos.
LEAF_MEMOS = (_designator_of, _match_of, _single_of, _condition_of)

roles = st.sampled_from(["clerk", "manager", "auditor"])


def forget_leaves():
    for memo in LEAF_MEMOS:
        memo.cache_clear()


def optional(strategy):
    return st.one_of(st.none(), strategy)


#: What :func:`random_policies` draws for a rule, plus the role its
#: condition asks for — kept as plain data, so that one recipe can be
#: built twice.
rule_recipes = st.tuples(
    st.booleans(),
    optional(subjects),
    optional(resources),
    optional(actions),
    optional(st.tuples(roles, st.booleans())),
)
policy_recipes = st.tuples(
    st.uuids().map(lambda u: f"gen-{u.hex}"),
    st.lists(rule_recipes, min_size=1, max_size=5),
    st.tuples(optional(subjects), optional(resources), optional(actions)),
    st.sampled_from(
        [
            combining.RULE_DENY_OVERRIDES,
            combining.RULE_PERMIT_OVERRIDES,
            combining.RULE_FIRST_APPLICABLE,
        ]
    ),
)


def build(recipe):
    """The policy a recipe spells, every leaf through the builders."""
    policy_id, rule_rows, target, algorithm = recipe
    rules = []
    for index, (permit, subject, resource, action, asks) in enumerate(rule_rows):
        rules.append(
            (permit_rule if permit else deny_rule)(
                f"rule-{index}",
                target=subject_resource_action_target(subject, resource, action),
                condition=asks
                and attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string(asks[0]), asks[1]
                ),
            )
        )
    return Policy(
        policy_id=policy_id,
        rules=tuple(rules),
        rule_combining=algorithm,
        target=subject_resource_action_target(*target),
    )


def shared_leaves(policy):
    """Every node of ``policy`` that a leaf memo hands out, in document
    order: single-match groups (and the match and designator inside),
    conditions (and the designator inside)."""
    leaves = []
    for holder in (policy, *policy.rules):
        for group in holder.target.any_ofs:
            (match,) = group.all_ofs[0].matches
            leaves += [group, match, match.designator]
        condition = getattr(holder, "condition", None)
        if condition is not None:
            leaves += [condition, condition.expression.arguments[1].designator]
    return leaves


def requests_with_role(triple, role):
    request = request_with_subjects(*triple)
    if role is not None:
        request.add(Category.SUBJECT, Attribute.of(SUBJECT_ROLE, string(role)))
    return request


class TestSharedLeavesAreUnobservable:
    @given(policy_recipes, st.lists(st.tuples(request_triples, optional(roles)), max_size=4))
    @settings(max_examples=60)
    def test_warm_and_cold_builds_are_the_same_policy(self, recipe, asked):
        from repro.xacml import evaluate_element

        build(recipe)
        warm = build(recipe)
        forget_leaves()
        cold = build(recipe)
        assert warm == cold
        assert serialize_policy(warm) == serialize_policy(cold)
        # Cleared in between: equal, and not one leaf in common ...
        assert not {id(leaf) for leaf in shared_leaves(warm)} & {
            id(leaf) for leaf in shared_leaves(cold)
        }
        # ... while two builds under one memo state have all in common.
        assert all(
            a is b
            for a, b in zip(shared_leaves(cold), shared_leaves(build(recipe)), strict=True)
        )
        for triple, role in asked:
            request = requests_with_role(triple, role)
            assert evaluate_element(warm, request) == evaluate_element(cold, request)

    @given(policy_recipes)
    @settings(max_examples=60)
    def test_parsing_shares_its_leaves_with_building(self, recipe):
        policy = build(recipe)
        parsed = parse_policy(serialize_policy(policy))
        assert parsed == policy
        assert all(
            a is b
            for a, b in zip(shared_leaves(parsed), shared_leaves(policy), strict=True)
        )

    @given(random_policies(), st.lists(request_triples, max_size=3))
    @settings(max_examples=60)
    def test_a_policy_parsed_warm_is_the_policy_parsed_cold(self, policy, triples):
        """The existing strategy: hand-built groups, ordered matches and
        alternatives among its targets, which no builder shares."""
        from repro.xacml import evaluate_element

        text = serialize_policy(policy)
        warm = parse_policy(text)
        forget_leaves()
        cold = parse_policy(text)
        assert warm == cold == policy
        assert serialize_policy(warm) == serialize_policy(cold) == text
        for triple in triples:
            request = request_with_subjects(*triple)
            assert (
                evaluate_element(warm, request)
                == evaluate_element(cold, request)
                == evaluate_element(policy, request)
            )

    # -- the key separates what the serializer writes apart ----------------------

    @pytest.mark.parametrize(
        "first, second",
        [
            (double(0.0), double(-0.0)),
            (double(-0.0), double(0.0)),
            (time_of_day(0.0), time_of_day(-0.0)),
            (integer(5), double(5.0)),
            (double(5.0), AttributeValue(DataType.DOUBLE, 5)),
            (string("5"), any_uri("5")),
            (string("true"), AttributeValue(DataType.BOOLEAN, True)),
        ],
        ids=lambda value: f"{value.data_type.name}:{value.lexical()}",
    )
    def test_equal_looking_literals_keep_their_own_lexical_form(self, first, second):
        """``double(0.0) == double(-0.0)`` with equal hashes: a memo
        keyed on the value would hand the second policy the first one's
        literal, and the serializer would write another number."""
        forget_leaves()

        def policy_about(value):
            return Policy(
                policy_id="p",
                rules=(
                    permit_rule(
                        "r",
                        condition=attribute_equals(Category.RESOURCE, "urn:test:x", value),
                    ),
                ),
                target=target_of(match_equal(Category.RESOURCE, "urn:test:x", value)),
            )

        built = [policy_about(first), policy_about(second)]
        for policy, value in zip(built, (first, second), strict=True):
            (match,) = policy.target.any_ofs[0].all_ofs[0].matches
            literal = policy.rules[0].condition.expression.arguments[0].value
            for held in (match.value, literal):
                assert (held.data_type, held.lexical()) == (value.data_type, value.lexical())
            text = serialize_policy(policy)
            assert text.count(f">{value.lexical()}</AttributeValue>") == 2
            assert parse_policy(text) == policy
            assert serialize_policy(parse_policy(text)) == text

    def test_a_time_needs_a_float_whether_or_not_an_equal_one_was_seen(self):
        time_of_day(5.0)
        for _ in range(2):
            with pytest.raises(TypeError):
                AttributeValue(DataType.TIME, 5)

    # -- exceptions are never remembered -----------------------------------------

    def test_a_leaf_that_cannot_be_built_raises_on_every_call(self):
        role = _designator_of(Category.SUBJECT, SUBJECT_ROLE, DataType.INTEGER, False, None)
        for _ in range(2):
            with pytest.raises(TypeError):
                match_equal(Category.SUBJECT, SUBJECT_ROLE, integer(True))
            with pytest.raises(ValueError):
                _match_of("urn:f", DataType.INTEGER, "five", role)
            with pytest.raises(ValueError):
                _condition_of("urn:f", DataType.BOOLEAN, "maybe", role)
        text = serialize_policy(
            Policy("p", (permit_rule("r"),), target=subject_resource_action_target("s0"))
        )
        unknown_type = text.replace("XMLSchema#string", "XMLSchema#strung")
        bad_integer = text.replace("XMLSchema#string", "XMLSchema#integer")
        assert unknown_type != text != bad_integer
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_policy(unknown_type)
            with pytest.raises(ValueError):
                parse_policy(bad_integer)
        # ... and the text that does parse still does.
        assert parse_policy(text).policy_id == "p"

    def test_the_memos_are_bounded_by_the_one_constant(self):
        assert {memo.cache_info().maxsize for memo in LEAF_MEMOS} == {LEAF_MEMO_SIZE}

    # -- slotted nodes ---------------------------------------------------------------

    def slotted_nodes(self):
        """One of every frozen node class of the tree and of a
        decision's results, each bound to a registry function."""
        equal = functions.FUNCTION_PREFIX_1_0 + "string-equal"
        role = AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)
        match = Match(equal, string("clerk"), role)
        all_of = AllOf((match,))
        any_of = AnyOf((all_of,))
        target = Target((any_of,))
        literal = Literal(string("clerk"))
        bag = Designator(role)
        apply = Apply(functions.FUNCTION_PREFIX_1_0 + "string-is-in", (literal, bag))
        condition = Condition(apply)
        rule = Rule("r", Decision.PERMIT, target, condition)
        policy = Policy("p", (rule,), target=target)
        reference = PolicyReference("elsewhere")
        return [
            role, match, all_of, any_of, target, literal, bag, apply,
            AnyOfFunction(equal, literal, bag),
            AllOfFunction(equal, literal, bag),
            condition, rule, RuleResult(Decision.PERMIT), policy, reference,
            PolicySet("s", (policy, reference), target=target),
            PolicyResult(Decision.DENY),
        ]  # fmt: skip

    def test_every_node_class_is_slotted_and_takes_no_stray_attribute(self):
        for node in self.slotted_nodes():
            assert not hasattr(node, "__dict__"), type(node).__name__
            field = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, getattr(node, field))
            # No ``__dict__`` to put it in.  (Through the frozen
            # ``__setattr__`` CPython 3.11 words the refusal as a
            # TypeError: it closes over the class ``slots=True`` replaced.)
            with pytest.raises((AttributeError, TypeError)):
                node.stray = 1
            with pytest.raises(AttributeError):
                object.__setattr__(node, "stray", 1)

    def test_every_node_copies_pickles_and_replaces(self):
        for node in self.slotted_nodes():
            for twin in (
                copy.copy(node),
                copy.deepcopy(node),
                pickle.loads(pickle.dumps(node)),
                dataclasses.replace(node),
            ):
                assert twin == node and type(twin) is type(node)
                # What ``__post_init__`` bound came along.
                for name in ("bag_key", "_function", "_by_value", "_combiner"):
                    assert getattr(twin, name, None) == getattr(node, name, None)
            # Every function node is bound: there was a closure to leave out.
            assert getattr(node, "_function", True) is not None

    def test_a_built_policy_deep_copies_and_replaces_bound_functions_and_all(self):
        policy = build(
            ("p", [(True, "s0", "r0", "read", ("clerk", True))], ("s1", None, None),
             combining.RULE_FIRST_APPLICABLE)
        )  # fmt: skip
        twin = copy.deepcopy(policy)
        assert twin == policy and serialize_policy(twin) == serialize_policy(policy)
        (match,) = twin.target.any_ofs[0].all_ofs[0].matches
        assert match._function is functions.find(match.match_function) is not None
        issued = policy.with_issuer("root")
        assert (issued.issuer, issued.rules, issued._combiner) == (
            "root", policy.rules, policy._combiner
        )  # fmt: skip
        other = dataclasses.replace(match, value=string("s2"))
        assert (other.value, other._function, other._by_value) == (
            string("s2"), match._function, True
        )  # fmt: skip

    @pytest.mark.parametrize("function_id", sorted(functions.known_functions()))
    def test_a_node_bound_to_any_registry_function_pickles_and_rebinds(
        self, function_id
    ):
        """Whatever factory made the function (``_make_equal``, the bag,
        comparison and string families, a plain ``def``), a node bound
        to it pickles without it and the copy binds the very function
        the registry holds."""
        role = Designator(
            AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)
        )
        literal = Literal(string("clerk"))
        for node in (
            Match(function_id, literal.value, role.designator),
            Apply(function_id, (literal, role)),
            AnyOfFunction(function_id, literal, role),
            AllOfFunction(function_id, literal, role),
        ):
            twin = pickle.loads(pickle.dumps(node))
            assert twin == node and type(twin) is type(node)
            assert twin._function is node._function is functions.find(function_id)
            assert getattr(twin, "_by_value", None) == getattr(node, "_by_value", None)

    @given(
        st.one_of(random_policies(), policy_recipes.map(build)),
        st.lists(st.tuples(request_triples, optional(roles)), max_size=4),
    )
    @settings(max_examples=40)
    def test_a_parsed_policy_pickles_and_decides_alike(self, policy, asked):
        """A bound node pickles without its registry closure and binds
        its own on load."""
        from repro.xacml import evaluate_element

        parsed = parse_policy(serialize_policy(policy))
        twin = pickle.loads(pickle.dumps(parsed))
        assert twin == parsed and serialize_policy(twin) == serialize_policy(parsed)
        for triple, role in asked:
            request = requests_with_role(triple, role)
            assert evaluate_element(twin, request) == evaluate_element(parsed, request)

    def test_a_population_policy_set_pickles_and_decides_alike(self):
        population = Population(PopulationSpec(subjects=200, resources=10))
        policies = population.policy_set(50)
        twins = pickle.loads(pickle.dumps(policies))
        assert twins == policies
        engines = []
        for corpus in (policies, twins):
            engine = PdpEngine()
            for policy in corpus:
                engine.add_policy(policy)
            engines.append(engine)
        decided = set()
        for request in population.request_contexts(200, seed=3):
            for attribute_id, values in population.subject_attributes(
                request.subject_id
            ).items():
                request.add(Category.SUBJECT, Attribute(attribute_id, tuple(values)))
            original, twin = (engine.evaluate(request) for engine in engines)
            assert twin == original
            decided.add(original.decision)
        assert Decision.PERMIT in decided and len(decided) > 1
