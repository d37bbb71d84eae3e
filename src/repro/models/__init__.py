"""Access control models (paper §2.2), all compiling to XACML.

RBAC (core/hierarchical/constrained), ABAC and the Brewer–Nash Chinese
Wall.  Each model keeps its own reference monitor (the oracle the
property tests compare against) and a ``compile_*`` path producing
ordinary XACML policies, so every model ultimately runs on the same
PDP engine.
"""

from .abac import AbacError, AbacPolicyBuilder, AbacRuleBuilder
from .chinese_wall import (
    AccessRecord,
    ChineseWallEngine,
    ChineseWallError,
    Dataset,
    WALL_OBLIGATION_ID,
    WallObligationHandler,
)
from .rbac import (
    DsdConstraint,
    Permission,
    RbacError,
    RbacModel,
    RbacSession,
    SsdConstraint,
)

__all__ = [
    "AbacError",
    "AbacPolicyBuilder",
    "AbacRuleBuilder",
    "AccessRecord",
    "ChineseWallEngine",
    "ChineseWallError",
    "Dataset",
    "DsdConstraint",
    "Permission",
    "RbacError",
    "RbacModel",
    "RbacSession",
    "SsdConstraint",
    "WALL_OBLIGATION_ID",
    "WallObligationHandler",
]
