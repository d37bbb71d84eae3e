"""Capability systems: the push-model architecture of paper Fig. 2.

CAS-style SAML capability assertions carrying authorisation decisions,
plus the PEP-side verifier/enforcer that makes the final provider-side
decision.
"""

from .cas import (
    CAPABILITY_LIFETIME,
    CapabilityRequest,
    CommunityAuthorizationService,
    capability_from_payload,
)
from .tokens import (
    CAPABILITY_SCOPE_ATTR,
    CAPABILITY_VO_ATTR,
    CapabilityEnforcer,
    CapabilityScope,
    CapabilityVerifier,
)

__all__ = [
    "CAPABILITY_LIFETIME",
    "CAPABILITY_SCOPE_ATTR",
    "CAPABILITY_VO_ATTR",
    "CapabilityEnforcer",
    "CapabilityRequest",
    "CapabilityScope",
    "CapabilityVerifier",
    "CommunityAuthorizationService",
    "capability_from_payload",
]
