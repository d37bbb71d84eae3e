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
* constrained RBAC: static separation of duty (SSD) checked at
  assignment time and dynamic separation of duty (DSD) checked at
  session-activation time — the paper's Section 3.1 names SoD as the
  canonical application-specific constraint that static policy analysis
  cannot catch;
* compilation to XACML: one policy per role (targeting the standard
  role attribute), so role-based decisions flow through the same
  PDP/PEP machinery as everything else;
* PIP population: users' *authorized role closure* is written to an
  attribute store so distributed PDPs resolve roles like any attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Raised on constraint violations or malformed model operations."""


@dataclass(frozen=True)
class Permission:
    """An operation on an object."""

    resource_id: str
    action_id: str

    def __str__(self) -> str:
        return f"{self.action_id}:{self.resource_id}"


@dataclass(frozen=True)
class SsdConstraint:
    """Static SoD: no user may hold >= cardinality roles of ``role_set``."""

    name: str
    role_set: frozenset[str]
    cardinality: int = 2

    def violated_by(self, roles: set[str]) -> bool:
        return len(self.role_set & roles) >= self.cardinality


@dataclass(frozen=True)
class DsdConstraint:
    """Dynamic SoD: no session may *activate* >= cardinality of ``role_set``."""

    name: str
    role_set: frozenset[str]
    cardinality: int = 2

    def violated_by(self, active: set[str]) -> bool:
        return len(self.role_set & active) >= self.cardinality


class RbacModel:
    """Users, roles, hierarchy, permissions and SoD constraints."""

    def __init__(self, name: str = "rbac") -> None:
        self.name = name
        self._roles: set[str] = set()
        self._juniors: dict[str, set[str]] = {}  # role -> directly inherited roles
        self._user_roles: dict[str, set[str]] = {}
        self._role_permissions: dict[str, set[Permission]] = {}
        self._ssd: list[SsdConstraint] = []
        self._dsd: list[DsdConstraint] = []
        #: Optional unified revocation registry (duck-typed; see
        #: repro.revocation): bound, permission revocations are recorded
        #: there so coherence agents can invalidate affected caches.
        self._revocation_registry = None

    def bind_revocation_registry(self, registry) -> None:
        self._revocation_registry = registry

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
        # Inheritance can widen users' authorized role sets; re-check SSD
        # over the *closure*, which is the strong (ANSI) interpretation.
        for user, assigned in self._user_roles.items():
            authorized = self.authorized_roles(user)
            for constraint in self._ssd:
                if constraint.violated_by(authorized):
                    self._juniors[senior].discard(junior)
                    raise RbacError(
                        f"inheritance {senior} -> {junior} violates SSD "
                        f"{constraint.name!r} for user {user!r}"
                    )

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
        candidate = self._user_roles.get(user, set()) | {role}
        authorized = set()
        for assigned in candidate:
            authorized |= self._closure(assigned)
        for constraint in self._ssd:
            if constraint.violated_by(authorized):
                raise RbacError(
                    f"assigning {role!r} to {user!r} violates SSD "
                    f"{constraint.name!r}"
                )
        self._user_roles.setdefault(user, set()).add(role)

    def deassign_user(self, user: str, role: str) -> None:
        self._user_roles.get(user, set()).discard(role)

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

    def revoke_permission(self, role: str, resource_id: str, action_id: str) -> None:
        permissions = self._role_permissions.get(role, set())
        present = Permission(resource_id, action_id) in permissions
        permissions.discard(Permission(resource_id, action_id))
        if present and self._revocation_registry is not None:
            self._revocation_registry.revoke_role_permission(
                self.name, role, resource_id, action_id
            )

    def role_permissions(self, role: str) -> set[Permission]:
        """Direct + inherited permissions of a role."""
        out: set[Permission] = set()
        for member in self._closure(role):
            out |= self._role_permissions.get(member, set())
        return out

    def user_permissions(self, user: str) -> set[Permission]:
        out: set[Permission] = set()
        for role in self.authorized_roles(user):
            out |= self._role_permissions.get(role, set())
        return out

    def check_access(self, user: str, resource_id: str, action_id: str) -> bool:
        """Reference-monitor check, used as the oracle in property tests."""
        return Permission(resource_id, action_id) in self.user_permissions(user)

    # -- constraints ----------------------------------------------------------------------

    def add_ssd(self, constraint: SsdConstraint) -> None:
        for role in constraint.role_set:
            self._require_role(role)
        for user in self._user_roles:
            if constraint.violated_by(self.authorized_roles(user)):
                raise RbacError(
                    f"existing assignment of {user!r} violates new SSD "
                    f"{constraint.name!r}"
                )
        self._ssd.append(constraint)

    def add_dsd(self, constraint: DsdConstraint) -> None:
        for role in constraint.role_set:
            self._require_role(role)
        self._dsd.append(constraint)

    @property
    def ssd_constraints(self) -> list[SsdConstraint]:
        return list(self._ssd)

    @property
    def dsd_constraints(self) -> list[DsdConstraint]:
        return list(self._dsd)

    # -- sessions (DSD) -----------------------------------------------------------------------

    def open_session(self, user: str) -> "RbacSession":
        return RbacSession(model=self, user=user)

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

    def compile_policy_set(self, include_fallback_deny: bool = True) -> PolicySet:
        """The deployable unit: role policies under permit-overrides.

        Any role policy that permits wins; the optional fallback denies
        everything else, making the set self-contained (closed world).
        """
        children: list[Policy] = self.compile_policies()
        if include_fallback_deny:
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


@dataclass
class RbacSession:
    """A session in which a user activates a subset of their roles (DSD)."""

    model: RbacModel
    user: str
    active_roles: set[str] = field(default_factory=set)

    def activate(self, role: str) -> None:
        if role not in self.model.assigned_roles(self.user):
            raise RbacError(
                f"user {self.user!r} is not assigned role {role!r}"
            )
        candidate = self.active_roles | {role}
        # DSD applies to the activated closure, mirroring SSD's strength.
        closure: set[str] = set()
        for active in candidate:
            closure |= self.model._closure(active)
        for constraint in self.model.dsd_constraints:
            if constraint.violated_by(closure):
                raise RbacError(
                    f"activating {role!r} violates DSD {constraint.name!r}"
                )
        self.active_roles.add(role)

    def deactivate(self, role: str) -> None:
        self.active_roles.discard(role)

    def check_access(self, resource_id: str, action_id: str) -> bool:
        """Access via *active* roles only (and their inherited juniors)."""
        permissions: set[Permission] = set()
        for role in self.active_roles:
            permissions |= self.model.role_permissions(role)
        return Permission(resource_id, action_id) in permissions
