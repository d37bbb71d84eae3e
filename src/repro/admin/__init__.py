"""Administration layer: delegation, syndication, conflicts, lifecycle.

The Section-3 management machinery: the XACML Administration & Delegation
profile (grants + reduction + revocation), the Fig. 5 policy-syndication
hierarchy, the runtime meta-policies (SoD, Chinese Wall) that catch what
static analysis cannot, and the policy lifecycle state machine with the
VO-wide consolidated compliance view.  The static modality-conflict scan
lives with the policy analyzer:
:func:`repro.xacml.analysis.find_modality_conflicts`.
"""

from .conflicts import (
    ChineseWallMetaPolicy,
    MetaPolicy,
    MetaPolicyEngine,
    SeparationOfDutyMetaPolicy,
    Veto,
)
from .delegation import (
    AdminGrant,
    DelegationError,
    DelegationRegistry,
    ReductionResult,
    Scope,
    effective_policies,
)
from .management import (
    DomainPolicySummary,
    LifecycleError,
    LifecycleEvent,
    LifecycleState,
    ManagedPolicy,
    PolicyLifecycleManager,
    consolidated_view,
)
from .syndication import (
    AcceptancePolicy,
    SyndicationNode,
    SyndicationReport,
    build_hierarchy,
)

__all__ = [
    "AcceptancePolicy",
    "AdminGrant",
    "ChineseWallMetaPolicy",
    "DelegationError",
    "DelegationRegistry",
    "DomainPolicySummary",
    "LifecycleError",
    "LifecycleEvent",
    "LifecycleState",
    "ManagedPolicy",
    "MetaPolicy",
    "MetaPolicyEngine",
    "PolicyLifecycleManager",
    "ReductionResult",
    "Scope",
    "SeparationOfDutyMetaPolicy",
    "SyndicationNode",
    "SyndicationReport",
    "Veto",
    "build_hierarchy",
    "consolidated_view",
    "effective_policies",
]
