"""Tests for the PDP engine and indexed policy store."""

from dataclasses import replace

import pytest

from repro.xacml import (
    AllOf,
    AnyOf,
    Attribute,
    AttributeDesignator,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Match,
    PdpEngine,
    Policy,
    PolicyStore,
    RESOURCE_ID,
    RequestContext,
    Target,
    combining,
    deny_rule,
    functions,
    match_equal,
    permit_rule,
    string,
    subject_resource_action_target,
    target_of,
)
from repro.xacml.targets import ACTION_BAG, RESOURCE_BAG


def resource_policy(resource_id, subject_id="alice"):
    return Policy(
        policy_id=f"policy-{resource_id}",
        rules=(
            permit_rule(
                "allow",
                subject_resource_action_target(subject_id=subject_id),
            ),
            deny_rule("deny-rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=resource_id),
    )


class TestPolicyStore:
    def test_duplicate_ids_rejected(self):
        store = PolicyStore()
        store.add(resource_policy("doc-1"))
        with pytest.raises(ValueError, match="duplicate"):
            store.add(resource_policy("doc-1"))

    def test_replace(self):
        store = PolicyStore()
        store.add(resource_policy("doc-1"))
        replacement = resource_policy("doc-1", subject_id="bob")
        store.replace(replacement)
        assert store.get("policy-doc-1") is replacement

    def test_replace_requeues_at_the_end(self):
        store = PolicyStore()
        first, second = resource_policy("doc-1"), resource_policy("doc-2")
        store.add(first)
        store.add(second)
        store.replace(first)
        assert store.elements() == [second, first]

    def test_index_prunes_candidates(self):
        store = PolicyStore(indexed=True)
        for index in range(100):
            store.add(resource_policy(f"doc-{index}"))
        request = RequestContext.simple("alice", "doc-7", "read")
        candidates = store.candidates(request)
        assert len(candidates) == 1
        assert candidates[0].policy_id == "policy-doc-7"

    def test_unindexed_store_scans_everything(self):
        store = PolicyStore(indexed=False)
        for index in range(10):
            store.add(resource_policy(f"doc-{index}"))
        request = RequestContext.simple("alice", "doc-7", "read")
        assert len(store.candidates(request)) == 10

    def test_unindexable_policy_always_candidate(self):
        store = PolicyStore(indexed=True)
        store.add(resource_policy("doc-1"))
        universal = Policy(policy_id="universal", rules=(deny_rule("d"),))
        store.add(universal)
        request = RequestContext.simple("alice", "other", "read")
        assert universal in store.candidates(request)

    def test_remove_clears_index(self):
        store = PolicyStore(indexed=True)
        store.add(resource_policy("doc-1"))
        store.remove("policy-doc-1")
        request = RequestContext.simple("alice", "doc-1", "read")
        assert store.candidates(request) == []
        assert len(store) == 0 and store._index == {}


def ill_typed_resource_target(resource_id) -> Target:
    """``string-equal`` over an anyURI literal: every compare raises, so
    the target is Indeterminate wherever a resource is carried."""
    return Target(
        any_ofs=(
            AnyOf(
                all_ofs=(
                    AllOf(
                        (
                            Match(
                                functions.FUNCTION_PREFIX_1_0 + "string-equal",
                                AttributeValue(DataType.ANY_URI, resource_id),
                                AttributeDesignator(
                                    Category.RESOURCE, RESOURCE_ID, DataType.STRING
                                ),
                            ),
                        )
                    ),
                )
            ),
        )
    )


def pinning(designator, literal) -> Target:
    """A target pinning ``designator``'s very bag to ``literal``."""
    match = match_equal(designator.category, designator.attribute_id, literal)
    return target_of(replace(match, designator=designator))


URI_RESOURCE_BAG = AttributeDesignator(
    Category.RESOURCE, RESOURCE_ID, DataType.ANY_URI
)
HR_RESOURCE_BAG = AttributeDesignator(
    Category.RESOURCE, RESOURCE_ID, DataType.STRING, issuer="hr"
)


class TestTargetSummaries:
    """``AnyOf.pins()`` is the one walk; ``Target.pinned`` and the
    store's plan are views of it."""

    def test_pins_report_the_bag_and_the_value(self):
        group = subject_resource_action_target(resource_id="doc").any_ofs[0]
        ((pin,),) = group.pins()
        designator, value = pin
        assert (designator.category, designator.attribute_id) == (
            Category.RESOURCE,
            RESOURCE_ID,
        )
        assert value == string("doc")
        assert Target((group,)).pinned(RESOURCE_BAG) == {"doc"}
        assert Target((group,)).pinned(ACTION_BAG) is None

    def test_an_alternative_without_a_pin_unpins_the_group(self):
        role = match_equal(Category.SUBJECT, "urn:test:role", string("admin"))
        doc = match_equal(Category.RESOURCE, RESOURCE_ID, string("doc"))
        assert AnyOf((AllOf((doc,)), AllOf((role,)))).pins() is None
        assert AnyOf((AllOf((doc, role)),)).pins() is not None
        assert AnyOf(()).pins() is None

    def test_a_pin_on_another_bag_of_the_same_name_confines_nothing(self):
        """``resource-id`` as ``anyURI``, or bound to an issuer, is not
        the bag a request is routed by: it may hold ``res-1`` while the
        request's own id reads ``res-2``."""
        for bag, literal in (
            (URI_RESOURCE_BAG, AttributeValue(DataType.ANY_URI, "res-1")),
            (HR_RESOURCE_BAG, string("res-1")),
        ):
            target = pinning(bag, literal)
            assert target.any_ofs[0].pins() is not None
            assert target.pinned(bag) == {"res-1"}
            assert target.pinned(RESOURCE_BAG) is None

    def test_the_index_keeps_what_pins_another_bag(self):
        """Looked up by ``res-2``, denied through the ``anyURI`` bag:
        the indexed store hands the pin on another bag to the engine."""
        uri = AttributeValue(DataType.ANY_URI, "res-1")
        store = PolicyStore()
        store.add(
            Policy(
                policy_id="deny-res-1",
                rules=(deny_rule("d"),),
                target=pinning(URI_RESOURCE_BAG, uri),
            )
        )
        store.add(Policy(policy_id="permit-all", rules=(permit_rule("p"),)))
        request = RequestContext.simple("alice", "res-2", "read")
        request.add(Category.RESOURCE, Attribute.of(RESOURCE_ID, uri))
        assert request.resource_id == "res-2"
        assert len(store.candidates(request)) == 2
        assert PdpEngine(store).evaluate(request).decision is Decision.DENY

    def test_an_ill_typed_equality_pins_nothing(self):
        target = ill_typed_resource_target("doc")
        assert target.any_ofs[0].pins() is None
        assert target.pinned(RESOURCE_BAG) is None
        # ... so the index may not drop the element: it is Indeterminate
        # (a PEP denies) for every resource.
        store = PolicyStore()
        store.add(Policy(policy_id="p", rules=(deny_rule("d"),), target=target))
        request = RequestContext.simple("alice", "other", "read")
        assert [p.policy_id for p in store.candidates(request)] == ["p"]

    def test_the_store_posts_under_the_first_group_and_keeps_the_rest(self):
        store = PolicyStore()
        store.add(
            Policy(
                policy_id="p",
                rules=(permit_rule("r"),),
                target=subject_resource_action_target("alice", "doc", "read"),
            )
        )
        for subject, resource, action, handed in (
            ("alice", "doc", "read", 1),
            ("bob", "doc", "read", 0),  # misses the posting key
            ("alice", "other", "read", 0),  # dropped by the residue
            ("alice", "doc", "write", 0),
        ):
            request = RequestContext.simple(subject, resource, action)
            assert len(store.candidates(request)) == handed, (subject, resource, action)
        # What a request does not carry rules nothing out.
        assert len(store.candidates(RequestContext())) == 1


class TestPdpEngine:
    def test_stats_reported(self):
        engine = PdpEngine()
        for index in range(20):
            engine.add_policy(resource_policy(f"doc-{index}"))
        response = engine.evaluate(RequestContext.simple("alice", "doc-3", "read"))
        assert response.stats.policies_considered == 1
        assert response.stats.policies_skipped_by_index == 19

    def test_engine_counts_evaluations(self):
        engine = PdpEngine()
        engine.add_policy(resource_policy("doc-1"))
        engine.decide(RequestContext.simple("alice", "doc-1", "read"))
        engine.decide(RequestContext.simple("alice", "doc-1", "read"))
        assert engine.evaluations == 2

    def test_attribute_finder_used(self):
        from repro.xacml import Category, attribute_equals

        policy = Policy(
            policy_id="role-gated",
            rules=(
                permit_rule(
                    "r",
                    condition=attribute_equals(
                        Category.SUBJECT, "urn:test:role", string("ops")
                    ),
                ),
                deny_rule("d"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )

        def finder(category, attribute_id, data_type):
            if attribute_id == "urn:test:role":
                return [string("ops")]
            return []

        engine = PdpEngine(attribute_finder=finder)
        engine.add_policy(policy)
        response = engine.evaluate(RequestContext.simple("s", "r", "read"))
        assert response.decision is Decision.PERMIT
        assert response.stats.finder_calls == 1
