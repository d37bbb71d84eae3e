"""Tests for the RBAC model: hierarchy and XACML compilation."""

import pytest

from repro.components import AttributeStore
from repro.models import Permission, RbacError, RbacModel
from repro.xacml import Category, Decision, PdpEngine, RequestContext


@pytest.fixture
def model():
    m = RbacModel("corp")
    for role in ("employee", "engineer", "manager", "auditor", "contractor"):
        m.add_role(role)
    m.add_inheritance("engineer", "employee")
    m.add_inheritance("manager", "engineer")
    m.grant_permission("employee", "cafeteria", "read")
    m.grant_permission("engineer", "repo", "write")
    m.grant_permission("manager", "budget", "write")
    m.grant_permission("auditor", "audit-log", "read")
    return m


class TestCoreRbac:
    def test_permission_via_assigned_role(self, model):
        model.assign_user("u", "engineer")
        assert model.check_access("u", "repo", "write")

    def test_no_permission_without_role(self, model):
        model.assign_user("u", "employee")
        assert not model.check_access("u", "repo", "write")

    def test_unknown_role_rejected(self, model):
        with pytest.raises(RbacError):
            model.assign_user("u", "wizard")

    def test_user_permissions_aggregate(self, model):
        model.assign_user("u", "manager")
        permissions = model.user_permissions("u")
        assert Permission("budget", "write") in permissions
        assert Permission("repo", "write") in permissions
        assert Permission("cafeteria", "read") in permissions


class TestHierarchy:
    def test_inheritance_is_transitive(self, model):
        model.assign_user("u", "manager")
        assert "employee" in model.authorized_roles("u")

    def test_cycle_rejected(self, model):
        with pytest.raises(RbacError, match="cycle"):
            model.add_inheritance("employee", "manager")

    def test_self_inheritance_rejected(self, model):
        with pytest.raises(RbacError, match="cycle"):
            model.add_inheritance("manager", "manager")


class TestXacmlCompilation:
    def engine_for(self, model):
        store = AttributeStore()
        model.populate_pip(store)
        engine = PdpEngine()
        engine.add_policy(model.compile_policy_set())

        def finder_factory(request):
            def finder(category, attribute_id, data_type):
                about = (
                    request.subject_id
                    if category is Category.SUBJECT
                    else request.resource_id
                ) or ""
                return store.lookup(category, attribute_id, about, data_type, 0.0)

            return finder

        return engine, finder_factory

    def test_compiled_matches_reference_monitor(self, model):
        model.assign_user("alice", "manager")
        model.assign_user("bob", "employee")
        engine, finder_factory = self.engine_for(model)
        for user in ("alice", "bob", "stranger"):
            for resource, action in (
                ("cafeteria", "read"),
                ("repo", "write"),
                ("budget", "write"),
                ("audit-log", "read"),
            ):
                request = RequestContext.simple(user, resource, action)
                engine.attribute_finder = finder_factory(request)
                decision = engine.decide(request)
                expected = model.check_access(user, resource, action)
                assert (decision is Decision.PERMIT) == expected, (
                    user,
                    resource,
                    action,
                )

    def test_fallback_deny_closes_world(self, model):
        model.assign_user("alice", "employee")
        engine, finder_factory = self.engine_for(model)
        request = RequestContext.simple("alice", "unknown-resource", "read")
        engine.attribute_finder = finder_factory(request)
        assert engine.decide(request) is Decision.DENY

    def test_policy_count_tracks_roles(self, model):
        assert len(model.compile_policies()) == len(model.roles())
