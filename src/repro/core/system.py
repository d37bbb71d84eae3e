"""The top-level facade: a domain's dependable access control system.

:class:`AccessControlSystem` is what a downstream user instantiates: it
wires a domain's PEP/PDP/PAP/PIP quartet, layers the meta-policy engine
(SoD, Chinese Wall) over base decisions, records every outcome in the
audit log, and optionally replaces the single PDP with a replicated
cluster behind heartbeat failover — the composition the paper's title
promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..admin.conflicts import MetaPolicyEngine, Veto
from ..components.fabric import DecisionDispatcher, HealthyFirstRouting
from ..components.pdp import PdpConfig
from ..components.pep import EnforcementResult, PepConfig, PolicyEnforcementPoint
from ..domain.domain import AdministrativeDomain, WebServiceResource
from ..xacml.context import Decision, RequestContext
from ..xacml.policy import Policy, PolicySet
from .audit import AuditLog, AuditRecord
from .dependability import HeartbeatMonitor, PdpCluster

PolicyElement = Union[Policy, PolicySet]


@dataclass
class SystemConfig:
    """Deployment choices for one domain's access control system."""

    #: Number of PDP replicas; 1 means a single (non-replicated) PDP.
    pdp_replicas: int = 1
    #: Heartbeat period for the failover monitor (replicated mode only).
    heartbeat_period: float = 0.5
    heartbeat_miss_threshold: int = 2
    pdp_config: Optional[PdpConfig] = None
    pep_config: Optional[PepConfig] = None


class AccessControlSystem:
    """One domain's complete, dependable authorisation system."""

    def __init__(
        self,
        domain: AdministrativeDomain,
        config: Optional[SystemConfig] = None,
        meta_policies: Optional[MetaPolicyEngine] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.domain = domain
        self.config = config if config is not None else SystemConfig()
        self.meta_policies = (
            meta_policies if meta_policies is not None else MetaPolicyEngine()
        )
        self.audit = audit if audit is not None else AuditLog()
        self.cluster: Optional[PdpCluster] = None
        self.monitor: Optional[HeartbeatMonitor] = None
        #: The replicated mode's shared ring, set on every protected PEP.
        self.dispatcher: Optional[DecisionDispatcher] = None
        if domain.pap is None:
            domain.create_pap()
        if domain.pip is None:
            domain.create_pip()
        if self.config.pdp_replicas > 1:
            self.cluster = PdpCluster(
                domain,
                replicas=self.config.pdp_replicas,
                config=self.config.pdp_config,
            )
            self.monitor = monitor = HeartbeatMonitor(
                f"hb.{domain.name}",
                domain.network,
                targets=self.cluster.addresses,
                period=self.config.heartbeat_period,
                miss_threshold=self.config.heartbeat_miss_threshold,
            )
            monitor.start()
            self.dispatcher = DecisionDispatcher(
                self.cluster.addresses,
                HealthyFirstRouting(lambda address: not monitor.is_suspected(address)),
            )
        elif domain.pdp is None:
            domain.create_pdp(config=self.config.pdp_config)

    # -- resources -----------------------------------------------------------------

    def protect(self, resource_id: str, description: str = "") -> WebServiceResource:
        """Expose a resource behind a PEP wired to this system's PDP(s)."""
        resource = self.domain.expose_resource(
            resource_id, description=description, pep_config=self.config.pep_config
        )
        if self.dispatcher is not None:
            resource.pep.dispatcher = self.dispatcher
        return resource

    def pep_for(self, resource_id: str) -> PolicyEnforcementPoint:
        resource = self.domain.resources.get(resource_id)
        if resource is None:
            raise KeyError(
                f"resource {resource_id!r} is not protected by this system"
            )
        return resource.pep

    # -- policy administration ---------------------------------------------------------

    def publish_policy(self, element: PolicyElement, publisher: str = "admin") -> int:
        assert self.domain.pap is not None
        return self.domain.pap.publish(element, publisher=publisher)

    def withdraw_policy(self, policy_id: str, requester: str = "admin") -> bool:
        assert self.domain.pap is not None
        return self.domain.pap.withdraw(policy_id, requester=requester)

    # -- authorisation ------------------------------------------------------------------

    def authorize(
        self,
        subject_id: str,
        resource_id: str,
        action_id: str,
        request: Optional[RequestContext] = None,
    ) -> EnforcementResult:
        """Authorise one access: PEP → PDP → meta-policies → audit."""
        pep = self.pep_for(resource_id)
        if request is None:
            request = RequestContext.simple(subject_id, resource_id, action_id)
        result = pep.authorize(request)
        veto: Optional[Veto] = None
        if result.granted:
            decision, veto = self.meta_policies.guard_decision(
                Decision.PERMIT, request, at=self.domain.network.now
            )
            if decision is not Decision.PERMIT:
                pep.grants -= 1
                pep.denials += 1
                result = EnforcementResult(
                    decision=Decision.DENY,
                    source="meta-policy",
                    obligations=result.obligations,
                    detail=veto.reason if veto else "meta-policy veto",
                )
        self.audit.record(
            AuditRecord(
                at=self.domain.network.now,
                domain=self.domain.name,
                pep=pep.name,
                subject_id=subject_id,
                resource_id=resource_id,
                action_id=action_id,
                decision=result.decision,
                source=result.source,
                detail=result.detail,
            )
        )
        return result

    # -- health --------------------------------------------------------------------------

    def decision_service_available(self) -> bool:
        """Can this system currently obtain decisions?"""
        if self.cluster is not None:
            assert self.monitor is not None
            return bool(self.monitor.alive_targets())
        return self.domain.pdp is not None and self.domain.pdp.alive

    def stats(self) -> dict[str, object]:
        peps = list(self.domain.peps.values())
        return {
            "domain": self.domain.name,
            "enforcements": sum(p.enforcements for p in peps),
            "grants": sum(p.grants for p in peps),
            "denials": sum(p.denials for p in peps),
            "fail_safe_denials": sum(p.fail_safe_denials for p in peps),
            "meta_policy_vetoes": self.meta_policies.vetoes_issued,
            "audit_records": len(self.audit),
            "pdp_replicas": (
                len(self.cluster.replicas) if self.cluster else 1
            ),
        }
