"""Administrative delegation (XACML Administration & Delegation profile).

Paper §3.2: "A centralised administrative policy is not sufficient for
multi-domain computing environments as collaborating parties may not
agree upon a single authority to grant and revoke authorisation rights
... each domain has its own administrative policy and defines how much of
its access control decision making process should be delegated to other
domains.  When such access is delegated to other domains then those
domains may or may not be able to delegate it further."

The profile's central operation is **reduction**: a policy published by a
non-root issuer is only effective if an unbroken chain of administrative
grants connects a trusted root authority to that issuer, each hop
covering the policy's scope and carrying the right to re-delegate.
:class:`DelegationRegistry` implements grants, reduction (with work
counters for experiment E12) and revocation with its documented cascade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..xacml.attributes import AttributeDesignator
from ..xacml.policy import Policy, PolicySet
from ..xacml.targets import ACTION_BAG, RESOURCE_BAG

PolicyElement = Union[Policy, PolicySet]


class DelegationError(Exception):
    """Raised on unauthorised grants or malformed scopes."""


@dataclass(frozen=True)
class Scope:
    """What a grant covers: resource and action, '*' meaning any."""

    resource_id: str = "*"
    action_id: str = "*"

    def covers(self, other: "Scope") -> bool:
        resource_ok = self.resource_id == "*" or self.resource_id == other.resource_id
        action_ok = self.action_id == "*" or self.action_id == other.action_id
        return resource_ok and action_ok

    def __str__(self) -> str:
        return f"{self.action_id}@{self.resource_id}"


@dataclass(frozen=True)
class AdminGrant:
    """One administrative delegation edge.

    ``max_depth`` bounds further delegation: 0 means the delegate may
    publish policies but not re-delegate; k > 0 lets the delegate issue
    grants with max_depth up to k-1.
    """

    delegator: str
    delegate: str
    scope: Scope
    max_depth: int = 0
    granted_at: float = 0.0


@dataclass
class ReductionResult:
    """Outcome of a reduction walk."""

    valid: bool
    chain: list[AdminGrant] = field(default_factory=list)
    steps_examined: int = 0
    reason: str = ""

    @property
    def depth(self) -> int:
        return len(self.chain)


class DelegationRegistry:
    """Grants, reduction and revocation for one trust domain (or VO)."""

    def __init__(self, roots: Optional[set[str]] = None) -> None:
        #: Authorities trusted unconditionally (e.g. each domain's PAP
        #: administrator, or the VO authority).
        self.roots: set[str] = set(roots or ())
        self._grants: list[AdminGrant] = []
        self.reductions_performed = 0
        self.total_steps = 0
        #: Optional unified revocation registry (duck-typed; see
        #: repro.revocation): bound, every withdrawn grant is recorded
        #: there, giving revoked delegations a propagation path.
        self._revocation_registry = None

    def add_root(self, authority: str) -> None:
        self.roots.add(authority)

    def bind_revocation_registry(self, registry) -> None:
        self._revocation_registry = registry

    def grant(
        self,
        delegator: str,
        delegate: str,
        scope: Scope,
        max_depth: int = 0,
        at: float = 0.0,
    ) -> AdminGrant:
        """Record a delegation; the delegator must itself hold the right.

        A root may always grant.  A non-root delegator must pass reduction
        for the scope with remaining delegation depth > 0.
        """
        if delegator not in self.roots:
            reduction = self.reduce(delegator, scope, require_delegation_right=True)
            if not reduction.valid:
                raise DelegationError(
                    f"{delegator!r} may not delegate {scope}: {reduction.reason}"
                )
        grant = AdminGrant(
            delegator=delegator,
            delegate=delegate,
            scope=scope,
            max_depth=max_depth,
            granted_at=at,
        )
        self._grants.append(grant)
        return grant

    def revoke(self, delegator: str, delegate: str, scope: Scope) -> int:
        """Remove matching grants.  Downstream grants die implicitly:
        reduction re-walks chains, so anything that depended on the
        removed edge stops reducing — the cascade the paper asks for."""
        victims = [
            g
            for g in self._grants
            if g.delegator == delegator
            and g.delegate == delegate
            and g.scope == scope
        ]
        for victim in victims:
            self._grants.remove(victim)
        if victims and self._revocation_registry is not None:
            self._revocation_registry.revoke_delegation(
                delegator, delegate, str(scope)
            )
        return len(victims)

    def grants_to(self, delegate: str) -> list[AdminGrant]:
        return [g for g in self._grants if g.delegate == delegate]

    def grants(self) -> list[AdminGrant]:
        return list(self._grants)

    # -- reduction ---------------------------------------------------------------

    def reduce(
        self,
        issuer: str,
        scope: Scope,
        require_delegation_right: bool = False,
    ) -> ReductionResult:
        """Walk grants from ``issuer`` back to a root covering ``scope``.

        Args:
            require_delegation_right: when True, the chain must leave the
                issuer with remaining depth > 0 (i.e. the issuer may
                *re-delegate*, not merely publish).

        The walk is a BFS over incoming grants; each visited grant counts
        one step (reported to E12).
        """
        self.reductions_performed += 1
        result = ReductionResult(valid=False)
        if issuer in self.roots:
            result.valid = True
            result.reason = "issuer is a root authority"
            return result
        # State: (authority, min remaining depth along path, chain so far).
        frontier: list[tuple[str, list[AdminGrant]]] = [(issuer, [])]
        visited: set[str] = {issuer}
        while frontier:
            current, chain = frontier.pop(0)
            for grant in self._grants:
                if grant.delegate != current or not grant.scope.covers(scope):
                    continue
                result.steps_examined += 1
                new_chain = chain + [grant]
                # Depth feasibility: hop i from the end must allow i more
                # delegations; the grant closest to the issuer needs
                # max_depth >= (hops below it) (+1 with delegation right).
                needed = len(chain) + (1 if require_delegation_right else 0)
                if grant.max_depth < needed:
                    continue
                if grant.delegator in self.roots:
                    result.valid = True
                    result.chain = list(reversed(new_chain))
                    result.reason = "chain reduces to root"
                    self.total_steps += result.steps_examined
                    return result
                if grant.delegator not in visited:
                    visited.add(grant.delegator)
                    frontier.append((grant.delegator, new_chain))
        result.reason = f"no grant chain from a root to {issuer!r} covers {scope}"
        self.total_steps += result.steps_examined
        return result

    # -- PAP integration --------------------------------------------------------------

    def policy_scope(self, element: PolicyElement) -> Scope:
        """The narrowest scope the policy's target confines it to.

        A dimension is named only when the target *requires* that one
        value of the request's own id bag
        (:meth:`~repro.xacml.targets.Target.pinned`); a literal that
        sits in one branch of a disjunction, or pins another bag of the
        same name (typed ``anyURI``, bound to an issuer), confines
        nothing, so the policy needs a grant for ``"*"``.
        """
        def confined_to(bag: AttributeDesignator) -> str:
            values = element.target.pinned(bag)
            return next(iter(values)) if values and len(values) == 1 else "*"

        return Scope(
            resource_id=confined_to(RESOURCE_BAG),
            action_id=confined_to(ACTION_BAG),
        )

    def pap_guard(self, operation: str, requester: str, policy_id: str) -> bool:
        """Guard callable for :class:`PolicyAdministrationPoint`.

        Publish/withdraw require the requester to reduce for a wildcard
        scope (the PAP does not know the policy body at guard time; the
        stricter per-scope check is applied by :func:`validate_issued`).
        """
        if requester in self.roots:
            return True
        return self.reduce(requester, Scope()).valid

    def validate_issued(self, element: PolicyElement) -> ReductionResult:
        """Reduce a policy's *issuer* against the policy's own scope.

        Policies without an issuer are treated as root-published (the
        profile's "trusted policies").
        """
        if element.issuer is None:
            return ReductionResult(valid=True, reason="trusted (no issuer)")
        return self.reduce(element.issuer, self.policy_scope(element))


def effective_policies(
    registry: DelegationRegistry, elements: list[PolicyElement]
) -> tuple[list[PolicyElement], list[tuple[PolicyElement, str]]]:
    """Split policies into (effective, rejected-with-reason) by reduction."""
    effective: list[PolicyElement] = []
    rejected: list[tuple[PolicyElement, str]] = []
    for element in elements:
        result = registry.validate_issued(element)
        if result.valid:
            effective.append(element)
        else:
            rejected.append((element, result.reason))
    return effective, rejected
