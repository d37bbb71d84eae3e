"""Role-Based Access Control (ANSI/Sandhu-style), compiled to XACML.

"RBAC merges the flexibility of explicit authorisations with additionally
imposed organisational constraints.  As such, RBAC is well suited for
distributed environments that need to address protection requirements for
a large base of subjects and objects" (paper §2.2).

The model implements:

* core RBAC: users, roles, permissions, user-role and permission-role
  assignment;
* hierarchical RBAC: role inheritance (seniors acquire junior
  permissions) with cycle detection;
* compilation to XACML: one policy per role (targeting the standard
  role attribute), so role-based decisions flow through the same
  PDP/PEP machinery as everything else;
* PIP population: users' *authorized role closure* is written to an
  attribute store so distributed PDPs resolve roles like any attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..components.pip import AttributeStore
from ..xacml import combining
from ..xacml.attributes import Category, SUBJECT_ROLE, string
from ..xacml.policy import Policy, PolicySet
from ..xacml.rules import deny_rule, permit_rule
from ..xacml.targets import (
    match_equal,
    subject_resource_action_target,
    target_of,
)


class RbacError(Exception):
    """Raised on malformed model operations (unknown role, cyclic
    inheritance)."""


@dataclass(frozen=True)
class Permission:
    """An operation on an object."""

    resource_id: str
    action_id: str

    def __str__(self) -> str:
        return f"{self.action_id}:{self.resource_id}"


class RbacModel:
    """Users, roles, hierarchy and permissions."""

    def __init__(self, name: str = "rbac") -> None:
        self.name = name
        self._roles: set[str] = set()
        self._juniors: dict[str, set[str]] = {}  # role -> directly inherited roles
        self._user_roles: dict[str, set[str]] = {}
        self._role_permissions: dict[str, set[Permission]] = {}

    # -- roles and hierarchy -------------------------------------------------------

    def add_role(self, role: str) -> None:
        self._roles.add(role)
        self._juniors.setdefault(role, set())
        self._role_permissions.setdefault(role, set())

    def roles(self) -> set[str]:
        return set(self._roles)

    def add_inheritance(self, senior: str, junior: str) -> None:
        """``senior`` inherits all of ``junior``'s permissions."""
        self._require_role(senior)
        self._require_role(junior)
        if senior == junior or senior in self._closure(junior):
            raise RbacError(
                f"inheritance {senior} -> {junior} would create a cycle"
            )
        self._juniors[senior].add(junior)

    def _closure(self, role: str) -> set[str]:
        """The role plus everything it transitively inherits."""
        out = {role}
        frontier = [role]
        while frontier:
            current = frontier.pop()
            for junior in self._juniors.get(current, ()):
                if junior not in out:
                    out.add(junior)
                    frontier.append(junior)
        return out

    def _require_role(self, role: str) -> None:
        if role not in self._roles:
            raise RbacError(f"unknown role {role!r}")

    # -- assignments --------------------------------------------------------------------

    def assign_user(self, user: str, role: str) -> None:
        self._require_role(role)
        self._user_roles.setdefault(user, set()).add(role)

    def assigned_roles(self, user: str) -> set[str]:
        return set(self._user_roles.get(user, set()))

    def authorized_roles(self, user: str) -> set[str]:
        """Assigned roles plus everything inherited through the hierarchy."""
        out: set[str] = set()
        for role in self._user_roles.get(user, set()):
            out |= self._closure(role)
        return out

    def users(self) -> list[str]:
        return list(self._user_roles)

    # -- permissions --------------------------------------------------------------------

    def grant_permission(self, role: str, resource_id: str, action_id: str) -> None:
        self._require_role(role)
        self._role_permissions[role].add(Permission(resource_id, action_id))

    def user_permissions(self, user: str) -> set[Permission]:
        out: set[Permission] = set()
        for role in self.authorized_roles(user):
            out |= self._role_permissions.get(role, set())
        return out

    def check_access(self, user: str, resource_id: str, action_id: str) -> bool:
        """Reference-monitor check, used as the oracle in property tests."""
        return Permission(resource_id, action_id) in self.user_permissions(user)

    # -- XACML compilation -----------------------------------------------------------------------

    def compile_role_policy(self, role: str) -> Policy:
        """One XACML policy granting this role's *direct* permissions.

        Inherited permissions are not duplicated here: users carry their
        full authorized-role closure as attribute values (see
        :meth:`populate_pip`), so a senior user matches the junior role's
        policy directly.  This keeps compiled policies small — the point
        the paper makes about RBAC scaling to large user bases.
        """
        self._require_role(role)
        rules = []
        for index, permission in enumerate(
            sorted(self._role_permissions[role], key=str)
        ):
            rules.append(
                permit_rule(
                    rule_id=f"{role}-perm-{index}",
                    target=subject_resource_action_target(
                        resource_id=permission.resource_id,
                        action_id=permission.action_id,
                    ),
                )
            )
        return Policy(
            policy_id=f"rbac:{self.name}:role:{role}",
            rules=tuple(rules),
            rule_combining=combining.RULE_PERMIT_OVERRIDES,
            target=target_of(
                match_equal(Category.SUBJECT, SUBJECT_ROLE, string(role))
            ),
            description=f"RBAC role policy for {role!r}",
        )

    def compile_policies(self) -> list[Policy]:
        """All role policies, one per role (no fallback deny).

        Combine with :meth:`compile_policy_set` for deployment: a bare
        fallback-deny *policy* would interact badly with a deny-overrides
        engine (it always applies), so the deny lives inside a
        permit-overrides policy set instead.
        """
        return [self.compile_role_policy(role) for role in sorted(self._roles)]

    def compile_policy_set(self) -> PolicySet:
        """The deployable unit: role policies under permit-overrides.

        Any role policy that permits wins; a fallback denies everything
        else, making the set self-contained (closed world).
        """
        children: list[Policy] = self.compile_policies()
        children.append(
            Policy(
                policy_id=f"rbac:{self.name}:fallback-deny",
                rules=(deny_rule("deny-all"),),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
                description="Deny anything no role policy permits",
            )
        )
        return PolicySet(
            policy_set_id=f"rbac:{self.name}",
            children=tuple(children),
            policy_combining=combining.POLICY_PERMIT_OVERRIDES,
            description=f"RBAC model {self.name!r}",
        )

    def populate_pip(self, store: AttributeStore) -> None:
        """Write each user's authorized-role closure into a PIP store."""
        for user in self._user_roles:
            store.set_subject_attribute(
                user,
                SUBJECT_ROLE,
                [string(role) for role in sorted(self.authorized_roles(user))],
            )
