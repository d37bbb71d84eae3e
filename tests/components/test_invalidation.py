"""Tests for selective cache invalidation and the PEP/PDP invalidation paths.

ISSUE 1 satellite: :meth:`TtlCache.invalidate_where`, the PEP's
``decision_cache.invalidate_all`` / ``invalidate_for`` (a
:class:`~repro.components.cache.DecisionCache` since ISSUE 20) and
:meth:`PolicyDecisionPoint.invalidate_policy_cache` previously had no
direct unit coverage despite being the coherence substrate.
"""

import pytest

from repro.components import (
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    TtlCache,
)
from repro.simnet import Network, SimClock
from repro.xacml import Policy, combining, permit_rule


class TestInvalidateWhere:
    def make(self):
        clock = SimClock()
        return TtlCache(ttl=100.0, clock=lambda: clock.now, capacity=100)

    def test_removes_only_matching_entries(self):
        cache = self.make()
        for key in ("a:1", "a:2", "b:1"):
            cache.put(key, key.upper())
        removed = cache.invalidate_where(lambda key: key.startswith("a"))
        assert removed == 2
        assert len(cache) == 1
        assert cache.get("b:1") == "B:1"
        assert cache.get("a:1") is None

    def test_counts_invalidations_in_stats(self):
        cache = self.make()
        cache.put("x", 1)
        cache.put("y", 2)
        cache.invalidate_where(lambda key: True)
        assert cache.stats.invalidations == 2

    def test_no_match_removes_nothing(self):
        cache = self.make()
        cache.put("x", 1)
        assert cache.invalidate_where(lambda key: False) == 0
        assert cache.get("x") == 1

    def test_empty_cache(self):
        cache = self.make()
        assert cache.invalidate_where(lambda key: True) == 0

    def test_predicate_over_tuple_keys(self):
        cache = self.make()
        cache.put(("subject", "alice"), 1)
        cache.put(("subject", "bob"), 2)
        removed = cache.invalidate_where(lambda key: "alice" in key)
        assert removed == 1
        assert cache.get(("subject", "bob")) == 2


@pytest.fixture
def env():
    network = Network(seed=31)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(
        Policy(
            policy_id="permit-all",
            rules=(permit_rule("everyone"),),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )
    pdp = PolicyDecisionPoint(
        "pdp", network, pap_address="pap",
        config=PdpConfig(policy_cache_ttl=3600.0, refresh_mode="full"),
    )
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp",
        config=PepConfig(decision_cache_ttl=3600.0),
    )
    return network, pap, pdp, pep


class TestPepInvalidationPaths:
    def test_invalidate_cached_decisions_clears_everything(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("bob", "doc", "read")
        assert len(pep.decision_cache) == 2
        pep.decision_cache.invalidate_all()
        assert len(pep.decision_cache) == 0
        # Next access is a miss served by the PDP again.
        assert pep.authorize_simple("alice", "doc", "read").source == "pdp"

    def test_invalidate_decisions_for_subject(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("alice", "other", "read")
        pep.authorize_simple("bob", "doc", "read")
        removed = pep.decision_cache.invalidate_for(subject_id="alice")
        assert removed == 2
        assert pep.authorize_simple("bob", "doc", "read").source == "cache"

    def test_invalidate_decisions_for_resource(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        pep.authorize_simple("bob", "doc", "write")
        pep.authorize_simple("bob", "other", "read")
        removed = pep.decision_cache.invalidate_for(resource_id="doc")
        assert removed == 2
        assert pep.authorize_simple("bob", "other", "read").source == "cache"

    def test_subject_and_resource_filters_union(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "a", "read")
        pep.authorize_simple("bob", "doc", "read")
        pep.authorize_simple("carol", "b", "read")
        removed = pep.decision_cache.invalidate_for(
            subject_id="alice", resource_id="doc"
        )
        assert removed == 2
        assert pep.authorize_simple("carol", "b", "read").source == "cache"

    def test_no_filter_is_a_no_op(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        assert pep.decision_cache.invalidate_for() == 0
        assert len(pep.decision_cache) == 1

    def test_unknown_subject_removes_nothing(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        assert pep.decision_cache.invalidate_for(subject_id="nobody") == 0


class TestPdpInvalidationPath:
    def test_invalidate_policy_cache_forces_refetch(self, env):
        network, pap, pdp, pep = env
        pep.authorize_simple("alice", "doc", "read")
        fetches = pdp.policy_fetches
        pep.decision_cache.invalidate_all()
        pep.authorize_simple("alice", "doc", "read")
        assert pdp.policy_fetches == fetches  # cache fresh: no refetch
        pdp.invalidate_policy_cache()
        pep.decision_cache.invalidate_all()
        pep.authorize_simple("alice", "doc", "read")
        assert pdp.policy_fetches == fetches + 1

    def test_invalidated_pdp_picks_up_new_policy(self, env):
        network, pap, pdp, pep = env
        assert pep.authorize_simple("alice", "doc", "read").granted
        from repro.xacml import deny_rule

        pap.publish(
            Policy(policy_id="permit-all", rules=(deny_rule("nobody"),))
        )
        pep.decision_cache.invalidate_all()
        # Policy cache still fresh: stale permit.
        assert pep.authorize_simple("alice", "doc", "read").granted
        pdp.invalidate_policy_cache()
        pep.decision_cache.invalidate_all()
        assert not pep.authorize_simple("alice", "doc", "read").granted


class TestPdpChangeNotices:
    """What a ``pap.changed`` notice does to the policy cache (the race
    it guards against is in ``tests/integration/test_fault_invariants``)."""

    def notified(self, env, payload):
        network, pap, pdp, pep = env
        pdp.subscribe_to_policy_changes()
        pep.authorize_simple("alice", "doc", "read")
        assert (pdp.policy_fetches, pdp._cached_revision) == (1, 1)
        pap.notify("pdp", "pap.changed", payload)
        network.run(until=network.now + 1.0)
        pep.decision_cache.invalidate_all()
        pep.authorize_simple("alice", "doc", "read")
        return pdp

    def test_a_notice_for_a_revision_already_held_changes_nothing(self, env):
        pdp = self.notified(env, '<PolicyChanged policyId="x" revision="1"/>')
        assert pdp.policy_fetches == 1
        assert pdp._announced_revision == 0

    def test_a_malformed_notice_still_invalidates(self, env):
        pdp = self.notified(env, "<PolicyChanged/>")
        assert pdp.policy_fetches == 2
        assert pdp._announced_revision == 0
