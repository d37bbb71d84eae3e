"""Policy lifecycle management and the consolidated security view.

Paper §3.2: "policy management involves many different steps including
writing, reviewing, testing, approving, issuing, combining, analyzing,
modifying, withdrawing, retrieving and enforcing authorisation policies.
Providing means of securing all those steps should be considered
mandatory" — and executives "need a way of providing a consolidated view
of the access control policy that is enforced within a computing
environment" for ISO 27k / DPA-style compliance.

:class:`PolicyLifecycleManager` is a guarded state machine over those
steps (with four-eyes separation between author and approver), and
:func:`consolidated_view` produces the auditor-facing summary across all
domains of a VO.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from ..components.pap import PolicyAdministrationPoint
from ..domain.virtual_org import VirtualOrganization
from ..xacml.policy import Policy, PolicySet, child_identifier
from ..xacml.validation import Severity, validate

PolicyElement = Union[Policy, PolicySet]


class LifecycleState(enum.Enum):
    DRAFT = "draft"
    REVIEWED = "reviewed"
    TESTED = "tested"
    APPROVED = "approved"
    ISSUED = "issued"
    WITHDRAWN = "withdrawn"


#: Legal transitions of the lifecycle state machine.
_TRANSITIONS: dict[LifecycleState, set[LifecycleState]] = {
    LifecycleState.DRAFT: {LifecycleState.REVIEWED},
    LifecycleState.REVIEWED: {LifecycleState.TESTED, LifecycleState.DRAFT},
    LifecycleState.TESTED: {LifecycleState.APPROVED, LifecycleState.DRAFT},
    LifecycleState.APPROVED: {LifecycleState.ISSUED, LifecycleState.DRAFT},
    LifecycleState.ISSUED: {LifecycleState.WITHDRAWN},
    LifecycleState.WITHDRAWN: {LifecycleState.DRAFT},
}


class LifecycleError(Exception):
    """Raised on illegal transitions or duty violations."""


@dataclass
class LifecycleEvent:
    at: float
    actor: str
    from_state: Optional[LifecycleState]
    to_state: LifecycleState
    note: str = ""


@dataclass
class ManagedPolicy:
    """A policy under lifecycle management."""

    element: PolicyElement
    author: str
    state: LifecycleState = LifecycleState.DRAFT
    history: list[LifecycleEvent] = field(default_factory=list)

    @property
    def policy_id(self) -> str:
        return child_identifier(self.element)


class PolicyLifecycleManager:
    """Drives policies through the paper's management steps.

    Duties are separated: the reviewer and the approver must each differ
    from the author (four-eyes), which is itself an instance of the SoD
    principle the paper keeps returning to.
    """

    def __init__(self, clock=lambda: 0.0) -> None:
        self._clock = clock
        self._policies: dict[str, ManagedPolicy] = {}

    def write(self, element: PolicyElement, author: str) -> ManagedPolicy:
        policy_id = child_identifier(element)
        if policy_id in self._policies and self._policies[
            policy_id
        ].state is not LifecycleState.WITHDRAWN:
            raise LifecycleError(f"policy {policy_id!r} already under management")
        managed = ManagedPolicy(element=element, author=author)
        managed.history.append(
            LifecycleEvent(
                at=self._clock(),
                actor=author,
                from_state=None,
                to_state=LifecycleState.DRAFT,
                note="written",
            )
        )
        self._policies[policy_id] = managed
        return managed

    def review(self, policy_id: str, reviewer: str) -> None:
        managed = self._get(policy_id)
        if reviewer == managed.author:
            raise LifecycleError(
                f"reviewer {reviewer!r} may not review their own policy"
            )
        self._transition(managed, LifecycleState.REVIEWED, reviewer)

    def test(self, policy_id: str, tester: str) -> list[str]:
        """The testing step: static validation must be error-free."""
        managed = self._get(policy_id)
        issues = validate(managed.element)
        errors = [str(i) for i in issues if i.severity is Severity.ERROR]
        if errors:
            self._transition(
                managed,
                LifecycleState.DRAFT,
                tester,
                note=f"test failed: {len(errors)} errors",
            )
            return errors
        self._transition(managed, LifecycleState.TESTED, tester)
        return []

    def approve(self, policy_id: str, approver: str) -> None:
        managed = self._get(policy_id)
        if approver == managed.author:
            raise LifecycleError(
                f"approver {approver!r} may not approve their own policy"
            )
        self._transition(managed, LifecycleState.APPROVED, approver)

    def issue(
        self,
        policy_id: str,
        issuer: str,
        pap: PolicyAdministrationPoint,
    ) -> int:
        """Publish an approved policy to a PAP; returns the PAP version."""
        managed = self._get(policy_id)
        if managed.state is not LifecycleState.APPROVED:
            raise LifecycleError(
                f"policy {policy_id!r} is {managed.state.value}, not approved"
            )
        version = pap.publish(managed.element, publisher=issuer)
        self._transition(managed, LifecycleState.ISSUED, issuer)
        return version

    def withdraw(self, policy_id: str, actor: str) -> None:
        self._transition(self._get(policy_id), LifecycleState.WITHDRAWN, actor)

    def state_of(self, policy_id: str) -> LifecycleState:
        return self._get(policy_id).state

    def managed(self) -> list[ManagedPolicy]:
        return list(self._policies.values())

    def _get(self, policy_id: str) -> ManagedPolicy:
        try:
            return self._policies[policy_id]
        except KeyError:
            raise LifecycleError(f"no managed policy {policy_id!r}") from None

    def _transition(
        self,
        managed: ManagedPolicy,
        to_state: LifecycleState,
        actor: str,
        note: str = "",
    ) -> None:
        if to_state not in _TRANSITIONS[managed.state]:
            raise LifecycleError(
                f"illegal transition {managed.state.value} -> {to_state.value} "
                f"for {managed.policy_id!r}"
            )
        managed.history.append(
            LifecycleEvent(
                at=self._clock(),
                actor=actor,
                from_state=managed.state,
                to_state=to_state,
                note=note,
            )
        )
        managed.state = to_state


# -- consolidated view ---------------------------------------------------------------------


@dataclass
class DomainPolicySummary:
    domain: str
    policy_ids: list[str]
    repository_revision: int
    pep_count: int
    resource_count: int


def consolidated_view(vo: VirtualOrganization) -> list[DomainPolicySummary]:
    """The auditor's table: what is enforced where, across the whole VO."""
    summaries = []
    for domain in vo.domains.values():
        policy_ids: list[str] = []
        revision = 0
        if domain.pap is not None:
            policy_ids = sorted(domain.pap.repository.identifiers())
            revision = domain.pap.repository.revision
        summaries.append(
            DomainPolicySummary(
                domain=domain.name,
                policy_ids=policy_ids,
                repository_revision=revision,
                pep_count=len(domain.peps),
                resource_count=len(domain.resources),
            )
        )
    return summaries
