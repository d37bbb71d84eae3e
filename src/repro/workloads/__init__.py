"""Synthetic workloads and named scenarios for experiments and examples."""

from .generator import (
    ACTIONS,
    AccessEvent,
    GeneratedWorkload,
    PolicyCorpusSpec,
    WorkloadSpec,
    build_workload,
    generate_policy_corpus,
    request_stream,
)
from .highload import (
    ClosedLoopRun,
    ClosedLoopStats,
    GroupLoadStats,
    PepLoadStats,
    access_requests,
    drive_closed_loop,
)
from .multidomain import (
    StalenessAudit,
    federated_resource_id,
    multi_domain_request_mix,
)
from .population import (
    Population,
    PopulationSpec,
    PopulationWorkload,
    SubjectProfile,
    ZipfSampler,
    build_population,
)
from .scenarios import (
    Scenario,
    enterprise_soa,
    grid_vo,
    healthcare_federation,
    revocation_churn,
)

__all__ = [
    "ACTIONS",
    "AccessEvent",
    "ClosedLoopRun",
    "ClosedLoopStats",
    "GeneratedWorkload",
    "GroupLoadStats",
    "PepLoadStats",
    "PolicyCorpusSpec",
    "Population",
    "PopulationSpec",
    "PopulationWorkload",
    "Scenario",
    "StalenessAudit",
    "SubjectProfile",
    "WorkloadSpec",
    "ZipfSampler",
    "access_requests",
    "build_population",
    "build_workload",
    "drive_closed_loop",
    "enterprise_soa",
    "federated_resource_id",
    "generate_policy_corpus",
    "grid_vo",
    "healthcare_federation",
    "multi_domain_request_mix",
    "request_stream",
    "revocation_churn",
]
