"""Runtime meta-policies: the conflicts static analysis cannot see.

Paper §3.1 distinguishes two conflict classes:

* **modality conflicts** — "a positive and negative policy with the same
  subjects, targets and actions" — detectable *before deployment* by
  static analysis; that scan is
  :func:`repro.xacml.analysis.find_modality_conflicts`, a query on the
  policy analyzer's constraint algebra;
* **application-specific conflicts** — e.g. Separation of Duty — "usually
  visible only at runtime once all policies are deployed", handled by
  *meta-policies* "that contain application specific constraints on other
  access control policies".  This module holds those: the Chinese
  wall meta-policy and the :class:`MetaPolicyEngine` that guards base
  decisions.

Experiment E8 runs the static scan over generated policy corpora,
checks which conflicts each XACML combining algorithm resolves and shows
the wall cases that only the runtime meta-policy engine catches.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional, Protocol

from ..models.chinese_wall import ChineseWallEngine
from ..xacml.context import Decision, RequestContext


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
