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
    SubjectProfile,
    ZipfSampler,
)
from .scenarios import (
    Scenario,
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
    "Scenario",
    "StalenessAudit",
    "SubjectProfile",
    "WorkloadSpec",
    "ZipfSampler",
    "build_workload",
    "drive_closed_loop",
    "federated_resource_id",
    "generate_policy_corpus",
    "healthcare_federation",
    "multi_domain_request_mix",
    "request_stream",
    "revocation_churn",
]
