"""Multi-domain layer: domains, Virtual Organisations, trust, identity.

Implements the environment of the paper's Fig. 1: autonomous
administrative domains with their own CAs, IdPs and authorisation
components, assembled into Virtual Organisations whose trust graph every
acceptance point reads (the federated collaboration mode), with trust
negotiation for strangers.
"""

from .domain import (
    AdministrativeDomain,
    COMPONENT_CERT_LIFETIME,
    WebServiceResource,
)
from .directory import (
    ResourceDirectory,
)
from .directory_service import (
    DIRECTORY_TOPIC,
    DirectoryClient,
    DirectoryLookupError,
    DirectoryRecord,
    DirectoryService,
    LOOKUP_ACTION,
    TRANSFER_KIND,
)
from .federation import build_federation
from .identity import (
    ASSERTION_LIFETIME,
    ATTRIBUTE_ALIASES,
    IdentityProvider,
    SUBJECT_VO_MEMBERSHIP,
    Subject,
    resolve_attribute_name,
)
from .trust import TrustGraph, TrustKind
from .trust_negotiation import (
    Credential,
    DisclosurePolicy,
    MAX_ROUNDS,
    NegotiationOutcome,
    NegotiationParty,
    TraustServer,
    negotiate,
)
from .virtual_org import VirtualOrganization

__all__ = [
    "ASSERTION_LIFETIME",
    "ATTRIBUTE_ALIASES",
    "AdministrativeDomain",
    "COMPONENT_CERT_LIFETIME",
    "Credential",
    "DIRECTORY_TOPIC",
    "DirectoryClient",
    "DirectoryLookupError",
    "DirectoryRecord",
    "DirectoryService",
    "DisclosurePolicy",
    "LOOKUP_ACTION",
    "TRANSFER_KIND",
    "IdentityProvider",
    "MAX_ROUNDS",
    "NegotiationOutcome",
    "NegotiationParty",
    "ResourceDirectory",
    "SUBJECT_VO_MEMBERSHIP",
    "Subject",
    "TraustServer",
    "TrustGraph",
    "TrustKind",
    "VirtualOrganization",
    "WebServiceResource",
    "build_federation",
    "negotiate",
    "resolve_attribute_name",
]
