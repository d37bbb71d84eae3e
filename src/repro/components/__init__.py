"""The four policy-based authorisation components (paper §2.2).

PEP enforces, PDP decides, PAP administers, PIP informs.  All are
network-attached :class:`~repro.components.base.Component` subclasses that
exchange real XML over the simulated network, plus the TTL caches the
architecture calls for.  A deployment fulfils obligations through the
PEP's :data:`~repro.components.pep.ObligationHandler` hook.

Every decision exchange — PEP→PDP, gateway→PDP, gateway→gateway,
replica→replica — is sealed and opened by one
:class:`~repro.components.channel.DecisionChannel` (plain body under a
base action, or one signed SOAP envelope under ``base + ".secure"``;
replies pinned to the destination asked), and the PDP serves every query
action from one table through one pipeline, so the signature policy
cannot be skipped by an endpoint::

    PEP / queue / gateway ── channel.seal ──▶ PDP: authenticate → decode → answer → sign ── channel.open_(batch_)reply ──▶ enforce

Batching is written once as well (:mod:`~repro.components.fabric`): a
:class:`~repro.components.fabric.Slot` is one unique request and whoever
waits on it; a :class:`~repro.components.fabric.BatchingStage` owns the
pending window, the in-flight map identical requests keep joining, the
size-or-delay trigger and the fan-out of answers; every stage's drain
sends through one :class:`~repro.components.fabric.BatchWireCore`
(one envelope per owning shard, failover, reply validation), and so
does a PEP's ``authorize`` — one single query, then a top-level wait::

    submit ─▶ Slot ─▶ BatchingStage ── drain ──▶ BatchWireCore.send ──▶ … ──▶ stage.deliver / stage.fail ─▶ waiters

The per-PEP queue, the domain gateway's backlog and the federated
gateway's per-peer forward buffers are instances of the stage; the
only per-tier batching code is the drain — single shot (queue), at most
``max_batch`` slots per paced step drawn fairly over the PEPs
(gateway), back-to-back chunks of the gateway's ``max_batch`` (forward
buffer).
"""

from .base import (
    Component,
    ComponentIdentity,
    DEFAULT_TIMEOUT,
    RpcFault,
    RpcTimeout,
)
from .cache import CacheStats, DecisionCache, TtlCache
from .channel import DecisionChannel, secure_action
from .fabric import (
    BatchWireCore,
    BatchingStage,
    CoalescingDecisionQueue,
    ConsistentHashRouting,
    DecisionDispatcher,
    DomainDecisionGateway,
    HealthyFirstRouting,
    LeastOutstandingRouting,
    QUEUE_LATENCY_SERIES,
    RoundRobinRouting,
    RoutingPolicy,
    SUPER_BATCH_SERIES,
    Slot,
    WireJob,
    pep_latency_series,
)
from .federation import (
    FORWARD_TTL,
    FORWARD_ACTION,
    FederatedGateway,
    ForwardedBatchQuery,
    SECURE_FORWARD_ACTION,
)
from .pap import (
    PolicyAdministrationPoint,
    PolicyRepository,
    parse_bundle,
    parse_revision,
    serialize_bundle,
)
from .placement import (
    AttributePartition,
    HASH_FUNCTIONS,
    PartitionStats,
    PlacementMap,
    PlacementSpec,
    SHARD_KEYS,
    stable_hash,
)
from .pdp import (
    BATCH_QUERY_ACTION,
    OWNED_BATCH_QUERY_ACTION,
    PdpConfig,
    PolicyDecisionPoint,
    QUERY_ACTION,
    SECURE_BATCH_QUERY_ACTION,
    SECURE_QUERY_ACTION,
)
from .pep import (
    EnforcementResult,
    ObligationHandler,
    PepConfig,
    PolicyEnforcementPoint,
    RevocationGuard,
)
from .pip import (
    AttributeStore,
    PolicyInformationPoint,
    parse_pip_query,
    parse_pip_response,
    serialize_pip_query,
    serialize_pip_response,
)

__all__ = [
    "AttributeStore",
    "BATCH_QUERY_ACTION",
    "BatchWireCore",
    "BatchingStage",
    "CacheStats",
    "CoalescingDecisionQueue",
    "FORWARD_TTL",
    "DecisionCache",
    "DecisionChannel",
    "DecisionDispatcher",
    "DomainDecisionGateway",
    "FORWARD_ACTION",
    "FederatedGateway",
    "ForwardedBatchQuery",
    "QUEUE_LATENCY_SERIES",
    "SECURE_FORWARD_ACTION",
    "SUPER_BATCH_SERIES",
    "Slot",
    "WireJob",
    "pep_latency_series",
    "AttributePartition",
    "ConsistentHashRouting",
    "HASH_FUNCTIONS",
    "HealthyFirstRouting",
    "LeastOutstandingRouting",
    "OWNED_BATCH_QUERY_ACTION",
    "PartitionStats",
    "PlacementMap",
    "PlacementSpec",
    "RoundRobinRouting",
    "RoutingPolicy",
    "SHARD_KEYS",
    "stable_hash",
    "SECURE_BATCH_QUERY_ACTION",
    "secure_action",
    "Component",
    "ComponentIdentity",
    "DEFAULT_TIMEOUT",
    "EnforcementResult",
    "ObligationHandler",
    "PdpConfig",
    "PepConfig",
    "PolicyAdministrationPoint",
    "PolicyDecisionPoint",
    "PolicyEnforcementPoint",
    "PolicyInformationPoint",
    "PolicyRepository",
    "QUERY_ACTION",
    "RevocationGuard",
    "RpcFault",
    "RpcTimeout",
    "SECURE_QUERY_ACTION",
    "TtlCache",
    "parse_bundle",
    "parse_pip_query",
    "parse_pip_response",
    "parse_revision",
    "serialize_bundle",
    "serialize_pip_query",
    "serialize_pip_response",
]
