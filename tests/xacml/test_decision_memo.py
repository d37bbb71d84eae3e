"""The decision memo on :class:`PolicyStore`: exact, bounded, per store.

A decision is a function of the candidates and of the bags the
evaluation fetched, so the store remembers each distinct path once (the
"decision memo" of ``repro.xacml.engine``'s docstring).  What must hold:

* **differential** — a store that has answered a stream of requests
  answers each one exactly as a fresh store does: response, every
  ``EvaluationStats`` counter, and the finder's call log, call by call;
* **exact keys** — what a store is swapped for, replaced with, refers
  to or registers later shows in the very next answer, and bags that
  ``AttributeValue`` equality merges (``0.0``, ``-0.0``) stay apart;
* **bounded** — a subject-id read does not grow the memo per subject.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.xacml import (
    AttributeDesignator,
    Category,
    Condition,
    DataType,
    Decision,
    Designator,
    PdpEngine,
    Policy,
    PolicyReference,
    PolicySet,
    PolicyStore,
    RequestContext,
    SUBJECT_ROLE,
    apply_,
    attribute_equals,
    combining,
    deny_rule,
    double,
    functions,
    integer,
    literal,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml.engine import MEMO_FANOUT, MEMO_NODES
from repro.xacml.functions import FUNCTION_PREFIX_1_0

from test_evaluation_reference import POLICY_COMBINING, finders, requests, stores

REQUEST = RequestContext.simple("alice", "doc", "read")
LEVEL = "urn:test:level"


def logged(finder, log):
    """``finder`` with every question it is asked appended to ``log``."""
    if finder is None:
        return None

    def ask(category, attribute_id, data_type):
        log.append((category, attribute_id, data_type))
        return finder(category, attribute_id, data_type)

    return ask


def engine_of(elements, algorithm=combining.POLICY_DENY_OVERRIDES, finder=None):
    engine = PdpEngine(policy_combining=algorithm, attribute_finder=finder)
    engine.add_policies(elements)
    return engine


def role_policy(policy_id="roles", resource_id="doc"):
    """Permit for the role ``nurse``, which only a finder supplies."""
    return Policy(
        policy_id=policy_id,
        rules=(
            permit_rule(
                "nurses",
                condition=attribute_equals(Category.SUBJECT, SUBJECT_ROLE, string("nurse")),
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=resource_id),
    )


def everyone(policy_id, rule, resource_id="doc"):
    return Policy(
        policy_id=policy_id,
        rules=(rule("all"),),
        target=subject_resource_action_target(resource_id=resource_id),
    )


@st.composite
def streams(draw):
    """A few distinct requests, asked in a drawn order with repeats."""
    distinct = draw(st.lists(requests(), min_size=1, max_size=3))
    order = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=8)
    )
    return [distinct[index] for index in order]


class TestDifferential:
    """Against a fresh store, which interprets every request."""

    @settings(max_examples=150, deadline=None)
    @given(stores(), streams(), finders())
    def test_a_warm_store_answers_as_a_fresh_one(self, elements, stream, finder):
        for algorithm in POLICY_COMBINING:
            warm_log: list = []
            warm = engine_of(elements, algorithm, logged(finder, warm_log))
            for request in stream:
                fresh_log: list = []
                fresh = engine_of(elements, algorithm, logged(finder, fresh_log))
                warm_log.clear()
                got, want = warm.evaluate(request), fresh.evaluate(request)
                assert got.response == want.response
                assert got.stats == want.stats
                assert warm_log == fresh_log

    @settings(max_examples=100, deadline=None)
    @given(stores(), streams(), finders())
    def test_a_batch_answers_as_fresh_stores(self, elements, stream, finder):
        for algorithm in POLICY_COMBINING:
            warm_log: list = []
            warm = engine_of(elements, algorithm)
            got = warm.evaluate_batch(
                stream, finder_for=lambda request, log=warm_log: logged(finder, log)
            )
            fresh_log: list = []
            for request, response in zip(stream, got, strict=True):
                fresh = engine_of(elements, algorithm, logged(finder, fresh_log))
                want = fresh.evaluate(request)
                assert response.response == want.response
                assert response.stats == want.stats
            assert warm_log == fresh_log

    def test_a_repeat_is_answered_without_interpreting(self):
        log: list = []
        engine = engine_of(
            [role_policy()], finder=logged(lambda *_: [string("nurse")], log)
        )
        first = engine.evaluate(REQUEST)
        interpreted: list[str] = []

        def watch(frame, event, _arg):
            code = frame.f_code
            if event == "call" and code.co_filename.endswith(("policy.py", "rules.py")):
                interpreted.append(code.co_name)

        sys.setprofile(watch)
        try:
            again = engine.evaluate(REQUEST)
        finally:
            sys.setprofile(None)
        assert interpreted == []
        assert again.response == first.response
        assert again.decision is Decision.PERMIT
        # The hit asked the finder as interpretation did: once each.
        assert again.stats == first.stats and again.stats.finder_calls == 1
        assert len(log) == 2

    def test_must_be_present_is_judged_on_a_hit_as_on_a_miss(self):
        needs_level = Policy(
            policy_id="needs-level",
            rules=(
                permit_rule(
                    "any-level",
                    condition=Condition(
                        apply_(
                            FUNCTION_PREFIX_1_0 + "integer-greater-than",
                            apply_(
                                FUNCTION_PREFIX_1_0 + "integer-one-and-only",
                                Designator(
                                    AttributeDesignator(
                                        Category.SUBJECT,
                                        LEVEL,
                                        DataType.INTEGER,
                                        must_be_present=True,
                                    )
                                ),
                            ),
                            literal(integer(0)),
                        )
                    ),
                ),
            ),
        )
        engine = engine_of([needs_level])
        answers = [engine.evaluate(REQUEST) for _ in range(3)]
        assert {answer.decision for answer in answers} == {Decision.INDETERMINATE}
        assert len({answer.response for answer in answers}) == 1


class TestExactKeys:
    def test_a_swapped_store_answers_from_its_own_policies(self):
        """Ordinals restart at 0 in a new store: a memo keyed by them
        outside the store would answer from the old policies."""
        engine = engine_of([everyone("p", permit_rule)])
        assert engine.decide(REQUEST) is Decision.PERMIT
        swapped = PolicyStore()
        swapped.add(everyone("p", deny_rule))
        engine.store = swapped
        assert engine.decide(REQUEST) is Decision.DENY

    def test_replace_mid_stream_changes_the_next_answer(self):
        engine = engine_of([everyone("p", permit_rule), everyone("q", permit_rule, "other")])
        assert engine.decide(REQUEST) is Decision.PERMIT
        engine.store.replace(everyone("p", deny_rule))
        assert engine.decide(REQUEST) is Decision.DENY
        engine.store.replace(everyone("p", permit_rule))
        assert engine.decide(REQUEST) is Decision.PERMIT

    def test_the_combining_algorithm_is_part_of_the_key(self):
        store = PolicyStore()
        store.add(everyone("allow", permit_rule))
        store.add(everyone("refuse", deny_rule))
        assert PdpEngine(store).decide(REQUEST) is Decision.DENY
        permissive = PdpEngine(store, policy_combining=combining.POLICY_PERMIT_OVERRIDES)
        assert permissive.decide(REQUEST) is Decision.PERMIT

    def test_a_referenced_policy_is_read_at_every_decision(self):
        """The referring set is the only candidate either way, so its
        root key does not move; what the reference finds does."""
        referring = PolicySet(
            policy_set_id="via-reference",
            children=(PolicyReference("lib"),),
            policy_combining=combining.POLICY_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="doc"),
        )
        engine = engine_of([referring])
        assert engine.decide(REQUEST) is Decision.INDETERMINATE
        # ``lib`` targets another resource: never a candidate itself.
        engine.store.add(everyone("lib", permit_rule, resource_id="elsewhere"))
        assert engine.store.candidates(REQUEST) == [referring]
        assert engine.decide(REQUEST) is Decision.NOT_APPLICABLE
        engine.store.remove("lib")
        assert engine.decide(REQUEST) is Decision.INDETERMINATE

    def test_replacing_a_referenced_policy_changes_the_answer(self):
        referring = PolicySet(
            policy_set_id="via-reference",
            children=(PolicyReference("lib"),),
            policy_combining=combining.POLICY_FIRST_APPLICABLE,
        )
        engine = engine_of([everyone("lib", permit_rule), referring])
        assert engine.decide(REQUEST) is Decision.PERMIT
        engine.store.replace(everyone("lib", deny_rule))
        assert engine.decide(REQUEST) is Decision.DENY

    def test_a_function_registered_later_changes_the_answer(self):
        late = "urn:test:memo:registered-after-the-decision"
        policy = Policy(
            policy_id="late",
            rules=(
                permit_rule(
                    "late",
                    condition=Condition(
                        apply_(late, literal(string("x")), literal(string("x")))
                    ),
                ),
            ),
        )
        engine = engine_of([policy])
        assert engine.decide(REQUEST) is Decision.INDETERMINATE
        functions.register(late)(
            functions.lookup(FUNCTION_PREFIX_1_0 + "string-equal")
        )
        try:
            assert engine.decide(REQUEST) is Decision.PERMIT
        finally:
            del functions._REGISTRY[late]

    @pytest.mark.parametrize("one, other", [(0.0, -0.0), (float("nan"), 0.0)])
    def test_values_equality_merges_are_distinct_keys(self, one, other):
        """``double(0.0) == double(-0.0)``, with equal hashes: keyed by
        lexical form they are two branches, and a NaN bag (equal to
        nothing, itself included) never lands on another's leaf."""
        zero = Policy(
            policy_id="zero",
            rules=(
                permit_rule(
                    "zero",
                    condition=attribute_equals(Category.SUBJECT, LEVEL, double(0.0)),
                ),
            ),
        )

        def asking(value):
            return RequestContext.simple(
                "alice", "doc", "read", subject_attributes={LEVEL: [double(value)]}
            )

        engine = engine_of([zero])
        for value in (one, other, one, other):
            fresh = engine_of([zero])
            got = engine.evaluate(asking(value))
            assert got.response == fresh.evaluate(asking(value)).response
        roots = engine.store._memo[combining.POLICY_DENY_OVERRIDES]
        (root,) = roots.values()
        assert type(root.children) is dict and len(root.children) == 2


class TestBounds:
    def test_distinct_subjects_leave_the_memo_bounded(self):
        """A rule on the subject id branches per subject; past
        ``MEMO_FANOUT`` the branch stops learning and drops what it had."""
        by_owner = Policy(
            policy_id="owner",
            rules=(
                permit_rule("owner", subject_resource_action_target(subject_id="user-7")),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="doc"),
        )
        engine = engine_of([by_owner])
        for index in range(10_000):
            request = RequestContext.simple(f"user-{index}", "doc", "read")
            expected = Decision.PERMIT if index == 7 else Decision.DENY
            assert engine.decide(request) is expected
        assert engine.store._memo_nodes <= MEMO_FANOUT + 8
        assert engine.decide(RequestContext.simple("user-7", "doc", "read")) is Decision.PERMIT

    def test_the_node_budget_starts_the_memo_over(self):
        """One root per policy, two nodes each: past ``MEMO_NODES`` the
        memo starts over instead of growing."""
        count = MEMO_NODES // 2 + 100
        engine = engine_of(
            [everyone(f"p{index}", permit_rule, f"doc-{index}") for index in range(count)]
        )
        for index in range(count):
            request = RequestContext.simple("alice", f"doc-{index}", "read")
            assert engine.decide(request) is Decision.PERMIT
        store = engine.store
        held = len(store._memo[combining.POLICY_DENY_OVERRIDES])
        assert 0 < held < count
        assert store._memo_nodes == 2 * held <= MEMO_NODES
