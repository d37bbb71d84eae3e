"""Policy conflict analysis: static detection and runtime meta-policies.

Paper §3.1 distinguishes two conflict classes:

* **modality conflicts** — "a positive and negative policy with the same
  subjects, targets and actions" — detectable *before deployment* by
  static analysis that "enumerates all {subject, action, target} tuples
  which have a different set of applicable policies";
* **application-specific conflicts** — e.g. Separation of Duty — "usually
  visible only at runtime once all policies are deployed", handled by
  *meta-policies* "that contain application specific constraints on other
  access control policies".

Experiment E8 runs the static analyser over generated policy corpora,
checks which conflicts each XACML combining algorithm resolves and shows
the wall/SoD cases that only the runtime meta-policy engine catches.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Union

from ..models.chinese_wall import ChineseWallEngine
from ..xacml.attributes import AttributeDesignator
from ..xacml.context import Decision, RequestContext
from ..xacml.policy import Policy, PolicySet
from ..xacml.rules import Rule
from ..xacml.targets import ACTION_BAG, RESOURCE_BAG, SUBJECT_BAG

PolicyElement = Union[Policy, PolicySet]


# -- static modality-conflict analysis --------------------------------------------------


@dataclass(frozen=True)
class RuleFootprint:
    """Literal constraint sets of one rule (None = unconstrained)."""

    policy_id: str
    rule_id: str
    effect: Decision
    subjects: Optional[frozenset[str]]
    resources: Optional[frozenset[str]]
    actions: Optional[frozenset[str]]
    has_condition: bool

    def overlaps(self, other: "RuleFootprint") -> bool:
        return (
            _sets_intersect(self.subjects, other.subjects)
            and _sets_intersect(self.resources, other.resources)
            and _sets_intersect(self.actions, other.actions)
        )


def _sets_intersect(
    a: Optional[frozenset[str]], b: Optional[frozenset[str]]
) -> bool:
    if a is None or b is None:
        return True  # unconstrained intersects everything
    return bool(a & b)


@dataclass(frozen=True)
class ConflictFinding:
    """A potential or actual modality conflict between two rules."""

    a: RuleFootprint
    b: RuleFootprint
    #: 'actual' when neither rule has a condition (the contradiction is
    #: unconditional); 'potential' when a condition might separate them.
    kind: str

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.a.policy_id}/{self.a.rule_id} "
            f"({self.a.effect.value}) vs {self.b.policy_id}/{self.b.rule_id} "
            f"({self.b.effect.value})"
        )


def _footprint(policy: Policy, rule: Rule) -> RuleFootprint:
    def merged(bag: AttributeDesignator) -> Optional[frozenset[str]]:
        from_policy = policy.target.pinned(bag)
        from_rule = rule.target.pinned(bag)
        if from_policy is None:
            return from_rule
        if from_rule is None:
            return from_policy
        return from_policy & from_rule

    return RuleFootprint(
        policy_id=policy.policy_id,
        rule_id=rule.rule_id,
        effect=rule.effect,
        subjects=merged(SUBJECT_BAG),
        resources=merged(RESOURCE_BAG),
        actions=merged(ACTION_BAG),
        has_condition=rule.condition is not None,
    )


def footprints(elements: Iterable[PolicyElement]) -> list[RuleFootprint]:
    out: list[RuleFootprint] = []
    for element in elements:
        policies = [element] if isinstance(element, Policy) else element.flatten()
        for policy in policies:
            for rule in policy.rules:
                out.append(_footprint(policy, rule))
    return out


def find_modality_conflicts(
    elements: Iterable[PolicyElement],
) -> list[ConflictFinding]:
    """Static analysis: all pairs of opposite-effect overlapping rules.

    Follows the paper's procedure: enumerate footprints, flag pairs where
    a Permit and a Deny share at least one {subject, action, target}
    tuple.  Unconditional pairs are *actual* conflicts; conditioned pairs
    are *potential* (the runtime condition may disambiguate).
    """
    prints = footprints(elements)
    findings: list[ConflictFinding] = []
    for i, a in enumerate(prints):
        for b in prints[i + 1 :]:
            if a.effect is b.effect:
                continue
            if not a.overlaps(b):
                continue
            kind = (
                "actual"
                if not a.has_condition and not b.has_condition
                else "potential"
            )
            findings.append(ConflictFinding(a=a, b=b, kind=kind))
    return findings


# -- runtime meta-policies ------------------------------------------------------------------


@dataclass(frozen=True)
class Veto:
    """A meta-policy objection to an otherwise-permitted request."""

    meta_policy: str
    reason: str


class MetaPolicy(Protocol):
    """Application-specific constraint evaluated at enforcement time."""

    name: str

    def check(self, request: RequestContext, at: float) -> Optional[Veto]: ...

    def record_grant(self, request: RequestContext, at: float) -> None: ...


@dataclass
class SeparationOfDutyMetaPolicy:
    """Dynamic SoD over resources: one subject must not touch two
    resources of the same exclusive set (paper §3.1's in-domain case)."""

    name: str
    exclusive_sets: list[frozenset[str]]
    _history: dict[str, set[str]] = field(default_factory=dict)

    def check(self, request: RequestContext, at: float) -> Optional[Veto]:
        subject = request.subject_id or ""
        resource = request.resource_id or ""
        touched = self._history.get(subject, set())
        for exclusive in self.exclusive_sets:
            if resource in exclusive:
                clashes = (touched & exclusive) - {resource}
                if clashes:
                    return Veto(
                        meta_policy=self.name,
                        reason=(
                            f"SoD: {subject!r} already used "
                            f"{sorted(clashes)[0]!r} from the same duty set"
                        ),
                    )
        return None

    def record_grant(self, request: RequestContext, at: float) -> None:
        subject = request.subject_id or ""
        resource = request.resource_id or ""
        self._history.setdefault(subject, set()).add(resource)


@dataclass
class ChineseWallMetaPolicy:
    """VO-wide conflict-of-interest wall (paper §3.1's cross-domain case)."""

    name: str
    engine: ChineseWallEngine

    def check(self, request: RequestContext, at: float) -> Optional[Veto]:
        subject = request.subject_id or ""
        resource = request.resource_id or ""
        try:
            permitted = self.engine.permitted(subject, resource)
        except Exception:
            return None  # resources outside the wall are unconstrained
        if not permitted:
            self.engine.vetoes += 1
            committed = self.engine.commitments_of(subject)
            return Veto(
                meta_policy=self.name,
                reason=(
                    f"Chinese wall: {subject!r} is committed to "
                    f"{sorted(committed.values())} in this conflict class"
                ),
            )
        return None

    def record_grant(self, request: RequestContext, at: float) -> None:
        subject = request.subject_id or ""
        resource = request.resource_id or ""
        with contextlib.suppress(Exception):
            self.engine.record_access(subject, resource, at)


class MetaPolicyEngine:
    """Runs a stack of meta-policies around base decisions.

    Wire into enforcement: after the base PDP permits, ``check_all``
    either returns a veto (enforce Deny) or None (record and proceed).
    """

    def __init__(self) -> None:
        self._policies: list[MetaPolicy] = []
        self.vetoes_issued = 0

    def add(self, policy: MetaPolicy) -> None:
        self._policies.append(policy)

    def check_all(self, request: RequestContext, at: float) -> Optional[Veto]:
        for policy in self._policies:
            veto = policy.check(request, at)
            if veto is not None:
                self.vetoes_issued += 1
                return veto
        return None

    def record_grant(self, request: RequestContext, at: float) -> None:
        for policy in self._policies:
            policy.record_grant(request, at)

    def guard_decision(
        self, base_decision: Decision, request: RequestContext, at: float
    ) -> tuple[Decision, Optional[Veto]]:
        """Combine a base decision with the meta-policy stack."""
        if base_decision is not Decision.PERMIT:
            return base_decision, None
        veto = self.check_all(request, at)
        if veto is not None:
            return Decision.DENY, veto
        self.record_grant(request, at)
        return Decision.PERMIT, None
