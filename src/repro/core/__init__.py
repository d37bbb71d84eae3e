"""Core: the paper's contribution assembled.

``AccessControlSystem`` wires one domain's components into a dependable
authorisation service (replication, failover, quorum, meta-policies,
audit); ``sequences`` executes the paper's three decision query sequences
(agent / push / pull) with figure-style flow traces; ``discovery``
provides registry-based PDP location.
"""

from .audit import AuditLog, AuditRecord
from .dependability import (
    HeartbeatMonitor,
    PdpCluster,
    QuorumClient,
    QuorumOutcome,
)
from .discovery import HealthProber, discovering_dispatcher, register_pdp
from .sequences import (
    AgentProxy,
    ClientAgent,
    FlowStep,
    FlowTrace,
    pull_sequence,
    push_sequence,
)
from .system import AccessControlSystem, SystemConfig

__all__ = [
    "AccessControlSystem",
    "AgentProxy",
    "AuditLog",
    "AuditRecord",
    "ClientAgent",
    "FlowStep",
    "FlowTrace",
    "HealthProber",
    "HeartbeatMonitor",
    "PdpCluster",
    "QuorumClient",
    "QuorumOutcome",
    "SystemConfig",
    "discovering_dispatcher",
    "pull_sequence",
    "push_sequence",
    "register_pdp",
]
