"""Capability tokens and their PEP-side verification/enforcement.

In the capability-issuing (push) architecture of Fig. 2, "the subject,
which requested capabilities, can include them, typically in form of
assertions, in business service calls.  Such assertion is then extracted
on the service side and validated for its integrity and authenticity.
Only then the enforcement point checks whether the capability is
sufficient" — and, per the paper, "the resource provider still makes the
final access control decision", so the enforcer supports an optional
local policy engine for provider-side restrictions on top of the
capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..components.pep import EnforcementResult, PolicyEnforcementPoint
from ..domain.domain import AdministrativeDomain
from ..domain.trust import TrustKind
from ..saml.assertions import AssertionError_, SignedAssertion
from ..xacml.context import Decision, Status, StatusCode

#: SAML attribute names used inside capability assertions.
CAPABILITY_SCOPE_ATTR = "urn:repro:capability:scope"
CAPABILITY_VO_ATTR = "urn:repro:capability:vo"


@dataclass(frozen=True)
class CapabilityScope:
    """One (resource, action) pair a capability covers."""

    resource_id: str
    action_id: str

    def encode(self) -> str:
        return f"{self.action_id}@{self.resource_id}"

    @classmethod
    def decode(cls, text: str) -> "CapabilityScope":
        action_id, _, resource_id = text.partition("@")
        if not action_id or not resource_id:
            raise ValueError(f"bad capability scope {text!r}")
        return cls(resource_id=resource_id, action_id=action_id)


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    reason: str = ""


class CapabilityVerifier:
    """Relying-party verification of SAML capability assertions.

    Checks, in order: that the relying domain accepts capabilities from
    the signer's domain, and the assertion's signature, chain, validity
    window and audience (:meth:`~repro.domain.domain.AdministrativeDomain.
    accept`); then the issuer allow-list, which pins a *component* such
    as one capability service, and scope coverage.
    """

    def __init__(
        self,
        domain: AdministrativeDomain,
        audience: Optional[str] = None,
        accepted_issuers: Optional[set[str]] = None,
    ) -> None:
        self.domain = domain
        self.audience = audience
        self.accepted_issuers = accepted_issuers

    def verify(
        self,
        capability: SignedAssertion,
        subject_id: str,
        resource_id: str,
        action_id: str,
        at: float,
    ) -> VerificationOutcome:
        try:
            assertion = self.domain.accept(
                capability, TrustKind.CAPABILITY, at, audience=self.audience
            )
        except AssertionError_ as exc:
            return VerificationOutcome(ok=False, reason=str(exc))
        if (
            self.accepted_issuers is not None
            and assertion.issuer not in self.accepted_issuers
        ):
            return VerificationOutcome(
                ok=False,
                reason=f"issuer {assertion.issuer!r} not accepted here",
            )
        if assertion.subject_id != subject_id:
            return VerificationOutcome(
                ok=False,
                reason=(
                    f"capability subject {assertion.subject_id!r} does not "
                    f"match caller {subject_id!r}"
                ),
            )
        wanted = CapabilityScope(resource_id, action_id)
        # Scope can be carried as an AuthzDecisionStatement (CAS style) or
        # as scope attributes; accept either encoding.
        if assertion.decision_for(resource_id, action_id) == "Permit":
            return VerificationOutcome(ok=True)
        scopes = {
            CapabilityScope.decode(text)
            for text in assertion.attribute_values(CAPABILITY_SCOPE_ATTR)
        }
        if wanted in scopes:
            return VerificationOutcome(ok=True)
        return VerificationOutcome(
            ok=False,
            reason=f"capability does not cover {wanted.encode()!r}",
        )


class CapabilityEnforcer:
    """Push-model enforcement wrapper around a PEP.

    The enforcer never contacts a PDP: the capability *is* the decision.
    """

    def __init__(
        self, pep: PolicyEnforcementPoint, verifier: CapabilityVerifier
    ) -> None:
        self.pep = pep
        self.verifier = verifier

    def authorize(
        self,
        capability: SignedAssertion,
        subject_id: str,
        resource_id: str,
        action_id: str,
    ) -> EnforcementResult:
        self.pep.enforcements += 1
        outcome = self.verifier.verify(
            capability, subject_id, resource_id, action_id, at=self.pep.now
        )
        if not outcome.ok:
            self.pep.denials += 1
            return EnforcementResult(
                decision=Decision.DENY,
                source="capability",
                status=Status(
                    code=StatusCode.PROCESSING_ERROR, message=outcome.reason
                ),
                detail=outcome.reason,
            )
        self.pep.grants += 1
        return EnforcementResult(decision=Decision.PERMIT, source="capability")
