"""Tests for delegation, syndication, conflicts and lifecycle management."""

import pytest

from repro.admin import (
    ChineseWallMetaPolicy,
    DelegationError,
    DelegationRegistry,
    LifecycleError,
    LifecycleState,
    MetaPolicyEngine,
    PolicyLifecycleManager,
    Scope,
    SeparationOfDutyMetaPolicy,
    SyndicationNode,
    build_hierarchy,
    consolidated_view,
    effective_policies,
)
from repro.components import PolicyAdministrationPoint
from repro.models import ChineseWallEngine
from repro.simnet import Network
from repro.xacml import (
    AllOf,
    AnyOf,
    Category,
    Decision,
    PdpEngine,
    Policy,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    Target,
    deny_rule,
    match_equal,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml.analysis import find_modality_conflicts


def db_or_eve_target() -> Target:
    """``resource=db OR subject=eve``: mentions ``db``, requires nothing."""
    return Target(
        any_ofs=(
            AnyOf(
                all_ofs=(
                    AllOf((match_equal(Category.RESOURCE, RESOURCE_ID, string("db")),)),
                    AllOf((match_equal(Category.SUBJECT, SUBJECT_ID, string("eve")),)),
                )
            ),
        )
    )


class TestDelegation:
    @pytest.fixture
    def registry(self):
        registry = DelegationRegistry(roots={"vo-authority"})
        return registry

    def test_root_always_reduces(self, registry):
        assert registry.reduce("vo-authority", Scope()).valid

    def test_single_hop(self, registry):
        registry.grant("vo-authority", "site-admin", Scope(), max_depth=1)
        result = registry.reduce("site-admin", Scope(resource_id="r", action_id="a"))
        assert result.valid
        assert result.depth == 1

    def test_scope_containment(self, registry):
        registry.grant(
            "vo-authority", "admin", Scope(resource_id="db"), max_depth=1
        )
        assert registry.reduce("admin", Scope(resource_id="db", action_id="read")).valid
        assert not registry.reduce("admin", Scope(resource_id="other")).valid

    def test_depth_limits_redelegation(self, registry):
        registry.grant("vo-authority", "a", Scope(), max_depth=0)
        with pytest.raises(DelegationError):
            registry.grant("a", "b", Scope())

    def test_deep_chain(self, registry):
        registry.grant("vo-authority", "l1", Scope(), max_depth=3)
        registry.grant("l1", "l2", Scope(), max_depth=2)
        registry.grant("l2", "l3", Scope(), max_depth=1)
        result = registry.reduce("l3", Scope())
        assert result.valid
        assert result.depth == 3

    def test_revocation_cascades_implicitly(self, registry):
        registry.grant("vo-authority", "a", Scope(), max_depth=2)
        registry.grant("a", "b", Scope(), max_depth=1)
        assert registry.reduce("b", Scope()).valid
        registry.revoke("vo-authority", "a", Scope())
        assert not registry.reduce("b", Scope()).valid

    def test_validate_issued_policies(self, registry):
        registry.grant(
            "vo-authority", "dept-admin", Scope(resource_id="db"), max_depth=1
        )
        trusted = Policy(policy_id="trusted", rules=(deny_rule("d"),))
        in_scope = Policy(
            policy_id="in-scope",
            rules=(permit_rule("p"),),
            target=subject_resource_action_target(resource_id="db"),
            issuer="dept-admin",
        )
        out_of_scope = Policy(
            policy_id="out-of-scope",
            rules=(permit_rule("p"),),
            target=subject_resource_action_target(resource_id="other"),
            issuer="dept-admin",
        )
        effective, rejected = effective_policies(
            registry, [trusted, in_scope, out_of_scope]
        )
        assert [p.policy_id for p in effective] == ["trusted", "in-scope"]
        assert [p.policy_id for p, _ in rejected] == ["out-of-scope"]

    def test_disjunctive_target_cannot_escape_the_granted_scope(self, registry):
        """A literal in one branch of a disjunction confines nothing: the
        policy below permits eve on *every* resource through its subject
        branch, so a delegate scoped to ``db`` may not issue it."""
        registry.grant(
            "vo-authority", "dept-admin", Scope(resource_id="db"), max_depth=1
        )
        escape = Policy(
            policy_id="escape",
            rules=(permit_rule("p"),),
            target=db_or_eve_target(),
            issuer="dept-admin",
        )
        engine = PdpEngine()
        engine.add_policy(escape)
        reaches_payroll = engine.evaluate(
            RequestContext.simple("eve", "payroll", "read")
        )
        assert reaches_payroll.decision is Decision.PERMIT
        assert registry.policy_scope(escape) == Scope()
        assert not registry.validate_issued(escape).valid
        effective, rejected = effective_policies(registry, [escape])
        assert effective == []
        assert [p.policy_id for p, _ in rejected] == ["escape"]

    def test_an_ill_typed_equality_confines_nothing(self, registry):
        """``string-equal`` over an anyURI literal never compares: the
        policy is Indeterminate (a PEP denies) on every resource, so it
        needs a grant for ``"*"`` however its literal reads."""
        from repro.xacml import AttributeDesignator, DataType, Match, functions
        from repro.xacml.attributes import any_uri

        ill_typed = Match(
            functions.FUNCTION_PREFIX_1_0 + "string-equal",
            any_uri("db"),
            AttributeDesignator(Category.RESOURCE, RESOURCE_ID, DataType.STRING),
        )
        policy = Policy(
            policy_id="ill-typed",
            rules=(deny_rule("d"),),
            target=Target(any_ofs=(AnyOf(all_ofs=(AllOf((ill_typed,)),)),)),
            issuer="dept-admin",
        )
        assert registry.policy_scope(policy) == Scope()
        elsewhere = Policy(
            policy_id="elsewhere",
            rules=(permit_rule("p", subject_resource_action_target(resource_id="fs")),),
        )
        findings = find_modality_conflicts([policy, elsewhere])
        assert [f.describe() for f in findings] == [
            "actual: ill-typed/d (Deny) vs elsewhere/p (Permit)"
        ]

    def test_a_pin_on_an_issued_bag_cannot_escape_the_granted_scope(self, registry):
        """ISSUE 20 reproduction (b): ``resource-id == res-1`` asked of
        the ``issuer="hr"`` bag only says what *hr* calls the resource;
        the policy applies whatever the request's own id is, so a
        delegate scoped to ``res-1`` may not issue it."""
        from dataclasses import replace

        from repro.xacml import Attribute, AttributeDesignator, DataType, target_of

        hr_bag = AttributeDesignator(
            Category.RESOURCE, RESOURCE_ID, DataType.STRING, issuer="hr"
        )
        pin = replace(
            match_equal(Category.RESOURCE, RESOURCE_ID, string("res-1")),
            designator=hr_bag,
        )
        registry.grant(
            "vo-authority", "dept-admin", Scope(resource_id="res-1"), max_depth=1
        )
        escape = Policy(
            policy_id="escape",
            rules=(permit_rule("p"),),
            target=target_of(pin),
            issuer="dept-admin",
        )
        request = RequestContext.simple("eve", "payroll", "read")
        request.add(
            Category.RESOURCE, Attribute.of(RESOURCE_ID, string("res-1"), issuer="hr")
        )
        engine = PdpEngine()
        engine.add_policy(escape)
        assert request.resource_id == "payroll"
        assert engine.evaluate(request).decision is Decision.PERMIT
        assert registry.policy_scope(escape) == Scope()
        assert not registry.validate_issued(escape).valid
        guard = Policy(
            policy_id="guard",
            rules=(deny_rule("d", subject_resource_action_target(resource_id="payroll")),),
        )
        findings = find_modality_conflicts([escape, guard])
        assert [f.describe() for f in findings] == [
            "actual: escape/p (Permit) vs guard/d (Deny)"
        ]

    def test_reduction_work_counted(self, registry):
        registry.grant("vo-authority", "a", Scope(), max_depth=2)
        registry.grant("a", "b", Scope(), max_depth=1)
        before = registry.reductions_performed
        registry.reduce("b", Scope())
        assert registry.reductions_performed == before + 1
        assert registry.total_steps > 0


class TestSyndication:
    def test_hierarchy_distributes_to_all_leaves(self):
        network = Network(seed=37)
        paps = [
            PolicyAdministrationPoint(f"pap.d{i}", network, domain=f"d{i}")
            for i in range(4)
        ]
        root, leaves = build_hierarchy(
            network, "root", {"eu": paps[:2], "us": paps[2:]}
        )
        policy = Policy(policy_id="global", rules=(deny_rule("lockdown"),))
        reports = root.publish(policy)
        assert all("global" in pap.repository for pap in paps)
        accepted = [r for r in reports if r.accepted]
        assert len(accepted) == 7  # root + 2 regional + 4 leaves

    def test_acceptance_constraint_filters(self):
        network = Network(seed=37)
        strict_pap = PolicyAdministrationPoint("pap.strict", network, domain="strict")
        open_pap = PolicyAdministrationPoint("pap.open", network, domain="open")

        def acceptance_for(domain):
            if domain == "strict":
                return lambda element: element.policy_id.startswith("approved-")
            return None

        root, leaves = build_hierarchy(
            network,
            "root",
            {"all": [strict_pap, open_pap]},
            acceptance_for=acceptance_for,
        )
        rogue = Policy(policy_id="rogue", rules=(permit_rule("p"),))
        reports = root.publish(rogue)
        assert "rogue" in open_pap.repository
        assert "rogue" not in strict_pap.repository
        rejected_nodes = [r.node for r in reports if r.rejected]
        assert any("strict" in node for node in rejected_nodes)

    def test_rejection_stops_propagation_below(self):
        network = Network(seed=37)
        leaf_pap = PolicyAdministrationPoint("pap.leaf", network, domain="leaf")
        root = SyndicationNode("root", network)
        blocker = SyndicationNode(
            "blocker", network, acceptance=lambda element: False
        )
        leaf = SyndicationNode("leaf", network, domain="leaf", local_pap=leaf_pap)
        root.add_child(blocker)
        blocker.add_child(leaf)
        root.publish(Policy(policy_id="p", rules=(deny_rule("d"),)))
        assert "p" not in leaf_pap.repository

    def crashed_leaf_hierarchy(self):
        network = Network(seed=37)
        paps = [
            PolicyAdministrationPoint(f"pap.d{i}", network, domain=f"d{i}")
            for i in range(2)
        ]
        root, (dead, live) = build_hierarchy(network, "root", {"eu": paps})
        dead.crash()
        return network, root, paps, dead, live

    def test_a_crashed_leaf_is_a_rejected_report_not_an_exception(self):
        """The region's blocking push to the dead leaf times out *inside
        its update handler*, inside the loop the root's ``publish`` is
        driving: the ``RpcTimeout`` used to come out of ``publish``."""
        network, root, (dead_pap, live_pap), dead, live = self.crashed_leaf_hierarchy()
        policy = Policy(policy_id="global", rules=(deny_rule("lockdown"),))
        reports = root.publish(policy)
        # The region waited for the leaf for as long as the root waited
        # for the region: to the root it is the region that did not answer.
        assert [(r.node, r.accepted, r.rejected) for r in reports] == [
            ("root", ["global"], []),
            ("synd.eu", [], ["global"]),
        ]
        network.run(until=network.now + 5.0)  # the late reply is dropped, not raised
        assert "global" in live_pap.repository and "global" not in dead_pap.repository
        dead.recover()
        assert [r.node for r in root.publish(policy) if r.accepted] == [
            "root", "synd.eu", dead.name, live.name
        ]  # fmt: skip

    def test_an_update_handler_survives_a_crashed_child_in_the_event_loop(self):
        """The same push with nobody blocking on it: the exception used
        to leave ``network.run``, taking every component with it."""
        network, root, (dead_pap, live_pap), dead, live = self.crashed_leaf_hierarchy()
        replies = []
        root.on("synd.update:response", lambda message: replies.append(message.payload))
        policy = Policy(policy_id="global", rules=(deny_rule("lockdown"),))
        from repro.xacml import serialize_policy

        root.notify("synd.eu", "synd.update", serialize_policy(policy))
        network.run(until=network.now + 5.0)
        (reply,) = replies
        # The region's own report: it applied, the dead leaf did not, and
        # the leaf after it was still served.
        assert reply == (
            '<SyndicationReport node="synd.eu"><Accepted id="global"/></SyndicationReport>'
            f'<SyndicationReport node="{dead.name}"><Rejected id="global"/></SyndicationReport>'
            f'<SyndicationReport node="{live.name}"><Accepted id="global"/></SyndicationReport>'
        )
        assert "global" in live_pap.repository and "global" not in dead_pap.repository

    def test_message_count_scales_with_tree_edges(self):
        network = Network(seed=37)
        paps = [
            PolicyAdministrationPoint(f"pap.x{i}", network, domain=f"x{i}")
            for i in range(4)
        ]
        root, _ = build_hierarchy(network, "root", {"r": paps})
        before = network.metrics.messages_sent
        root.publish(Policy(policy_id="p", rules=(deny_rule("d"),)))
        used = network.metrics.messages_sent - before
        # 1 regional + 4 leaves = 5 updates, each with a reply = 10.
        assert used == 10


class TestConflicts:
    def test_injected_conflicts_found(self):
        from repro.workloads import PolicyCorpusSpec, generate_policy_corpus

        policies, injected = generate_policy_corpus(
            PolicyCorpusSpec(policies=20, injected_conflicts=4, seed=3)
        )
        findings = find_modality_conflicts(policies)
        actual = [f for f in findings if f.kind == "actual"]
        assert len(actual) >= injected

    def test_no_false_conflict_on_disjoint_targets(self):
        a = Policy(
            policy_id="a",
            rules=(permit_rule("p", subject_resource_action_target(subject_id="x")),),
        )
        b = Policy(
            policy_id="b",
            rules=(deny_rule("d", subject_resource_action_target(subject_id="y")),),
        )
        assert find_modality_conflicts([a, b]) == []

    def test_same_effect_never_conflicts(self):
        target = subject_resource_action_target(subject_id="x")
        a = Policy(policy_id="a", rules=(permit_rule("p1", target),))
        b = Policy(policy_id="b", rules=(permit_rule("p2", target),))
        assert find_modality_conflicts([a, b]) == []

    def test_conditioned_conflict_is_potential(self):
        from repro.xacml import Condition, boolean, literal

        target = subject_resource_action_target(subject_id="x")
        a = Policy(
            policy_id="a",
            rules=(
                permit_rule("p", target, condition=Condition(literal(boolean(True)))),
            ),
        )
        b = Policy(policy_id="b", rules=(deny_rule("d", target),))
        findings = find_modality_conflicts([a, b])
        assert len(findings) == 1
        assert findings[0].kind == "potential"

    def test_policy_target_intersects_rule_target(self):
        policy = Policy(
            policy_id="scoped",
            target=subject_resource_action_target(resource_id="db"),
            rules=(permit_rule("p"),),
        )
        denials = [
            Policy(
                policy_id=f"deny-{resource}",
                rules=(deny_rule("d", subject_resource_action_target(resource_id=resource)),),
            )
            for resource in ("fs", "db")
        ]
        findings = find_modality_conflicts([policy, *denials])
        assert [(f.kind, f.a, f.b) for f in findings] == [
            (
                "actual",
                ("scoped", "p", Decision.PERMIT),
                ("deny-db", "d", Decision.DENY),
            )
        ]

    def test_disjunctive_target_footprint_is_not_narrowed(self):
        """The Permit reaches (eve, payroll) through its subject branch,
        so it conflicts with a Deny there even though it mentions db."""
        permit = Policy(
            policy_id="wide",
            rules=(permit_rule("p", db_or_eve_target()),),
        )
        deny = Policy(
            policy_id="guard",
            rules=(
                deny_rule(
                    "d",
                    subject_resource_action_target(
                        subject_id="eve", resource_id="payroll"
                    ),
                ),
            ),
        )
        findings = find_modality_conflicts([permit, deny])
        assert [f.describe() for f in findings] == [
            "actual: wide/p (Permit) vs guard/d (Deny)"
        ]

    def test_policy_sets_are_flattened(self):
        from repro.xacml import PolicySet

        inner = Policy(policy_id="inner", rules=(deny_rule("d"),))
        outer = PolicySet(policy_set_id="outer", children=(inner,))
        loose = Policy(policy_id="loose", rules=(permit_rule("p"),))
        findings = find_modality_conflicts([outer, loose])
        assert [f.describe() for f in findings] == [
            "actual: inner/d (Deny) vs loose/p (Permit)"
        ]


class TestMetaPolicies:
    def test_sod_veto(self):
        engine = MetaPolicyEngine()
        engine.add(
            SeparationOfDutyMetaPolicy(
                "sod", [frozenset({"submit", "approve"})]
            )
        )
        first = RequestContext.simple("u", "submit", "write")
        second = RequestContext.simple("u", "approve", "write")
        decision, veto = engine.guard_decision(Decision.PERMIT, first, 0.0)
        assert decision is Decision.PERMIT and veto is None
        decision, veto = engine.guard_decision(Decision.PERMIT, second, 1.0)
        assert decision is Decision.DENY
        assert "SoD" in veto.reason

    def test_sod_does_not_block_other_subjects(self):
        engine = MetaPolicyEngine()
        engine.add(
            SeparationOfDutyMetaPolicy("sod", [frozenset({"submit", "approve"})])
        )
        engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u1", "submit", "write"), 0.0
        )
        decision, veto = engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u2", "approve", "write"), 1.0
        )
        assert decision is Decision.PERMIT

    def test_chinese_wall_meta_policy(self):
        wall = ChineseWallEngine()
        wall.register_dataset("bank-a", "banks")
        wall.register_dataset("bank-b", "banks")
        engine = MetaPolicyEngine()
        engine.add(ChineseWallMetaPolicy("wall", wall))
        decision, _ = engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u", "bank-a", "read"), 0.0
        )
        assert decision is Decision.PERMIT
        decision, veto = engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u", "bank-b", "read"), 1.0
        )
        assert decision is Decision.DENY
        assert "wall" in veto.meta_policy

    def test_base_denial_passes_through(self):
        engine = MetaPolicyEngine()
        decision, veto = engine.guard_decision(
            Decision.DENY, RequestContext.simple("u", "r", "read"), 0.0
        )
        assert decision is Decision.DENY and veto is None

    def test_static_analysis_blind_to_wall_conflicts(self):
        """The paper: application-specific conflicts escape static analysis."""
        bank_a = Policy(
            policy_id="bank-a-policy",
            rules=(
                permit_rule(
                    "p", subject_resource_action_target(resource_id="bank-a")
                ),
            ),
        )
        bank_b = Policy(
            policy_id="bank-b-policy",
            rules=(
                permit_rule(
                    "p", subject_resource_action_target(resource_id="bank-b")
                ),
            ),
        )
        # No modality conflict exists between two permits...
        assert find_modality_conflicts([bank_a, bank_b]) == []
        # ...yet the runtime wall vetoes the second access.
        wall = ChineseWallEngine()
        wall.register_dataset("bank-a", "banks")
        wall.register_dataset("bank-b", "banks")
        engine = MetaPolicyEngine()
        engine.add(ChineseWallMetaPolicy("wall", wall))
        engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u", "bank-a", "read"), 0.0
        )
        decision, _ = engine.guard_decision(
            Decision.PERMIT, RequestContext.simple("u", "bank-b", "read"), 1.0
        )
        assert decision is Decision.DENY


class TestLifecycle:
    @pytest.fixture
    def manager(self):
        return PolicyLifecycleManager()

    def policy(self, policy_id="lp"):
        return Policy(policy_id=policy_id, rules=(permit_rule("r"),))

    def test_full_lifecycle(self, manager):
        network = Network(seed=1)
        pap = PolicyAdministrationPoint("pap.solo", network, domain="solo")
        manager.write(self.policy(), author="ann")
        manager.review("lp", reviewer="ben")
        assert manager.test("lp", tester="cid") == []
        manager.approve("lp", approver="ben")
        version = manager.issue("lp", issuer="ann", pap=pap)
        assert version == 1
        assert manager.state_of("lp") is LifecycleState.ISSUED
        manager.withdraw("lp", actor="ann", pap=pap)
        assert manager.state_of("lp") is LifecycleState.WITHDRAWN
        assert "lp" not in pap.repository

    def test_four_eyes_review(self, manager):
        manager.write(self.policy(), author="ann")
        with pytest.raises(LifecycleError, match="own policy"):
            manager.review("lp", reviewer="ann")

    def test_four_eyes_approval(self, manager):
        manager.write(self.policy(), author="ann")
        manager.review("lp", reviewer="ben")
        manager.test("lp", tester="cid")
        with pytest.raises(LifecycleError, match="own policy"):
            manager.approve("lp", approver="ann")

    def test_cannot_issue_unapproved(self, manager):
        network = Network(seed=1)
        pap = PolicyAdministrationPoint("pap.x", network)
        manager.write(self.policy(), author="ann")
        with pytest.raises(LifecycleError, match="not approved"):
            manager.issue("lp", issuer="ann", pap=pap)

    def test_failed_validation_returns_to_draft(self, manager):
        from repro.xacml import Condition, apply_

        broken = Policy(
            policy_id="broken",
            rules=(permit_rule("r", condition=Condition(apply_("urn:bogus"))),),
        )
        manager.write(broken, author="ann")
        manager.review("broken", reviewer="ben")
        errors = manager.test("broken", tester="cid")
        assert errors
        assert manager.state_of("broken") is LifecycleState.DRAFT

    def test_modification_resets_lifecycle(self, manager):
        manager.write(self.policy(), author="ann")
        manager.review("lp", reviewer="ben")
        manager.modify("lp", self.policy(), author="ann")
        assert manager.state_of("lp") is LifecycleState.DRAFT

    def test_illegal_transition(self, manager):
        manager.write(self.policy(), author="ann")
        with pytest.raises(LifecycleError, match="illegal transition"):
            manager.approve("lp", approver="ben")


class TestConsolidatedView:
    def test_summarises_all_domains(self):
        from repro.domain import build_federation
        from repro.wss import KeyStore

        network = Network(seed=41)
        keystore = KeyStore(seed=41)
        vo, _ = build_federation("vo", ["a", "b"], network, keystore)
        vo.domain("a").pap.publish(
            Policy(policy_id="pa", rules=(deny_rule("d"),))
        )
        vo.domain("a").expose_resource("res-1")
        view = consolidated_view(vo)
        by_domain = {summary.domain: summary for summary in view}
        assert by_domain["a"].policy_ids == ["pa"]
        assert by_domain["a"].pep_count == 1
        assert by_domain["b"].policy_ids == []
