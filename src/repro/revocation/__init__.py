"""Unified revocation & cache coherence (paper §3.2 staleness mitigation).

The seed bounded staleness with TTLs only; this package makes revocation
a first-class subsystem:

* :mod:`records` — one signed, epoch-numbered record type unifying
  capability, delegation, certificate, trust-edge and entitlement
  revocation;
* :mod:`registry` — the single source of revocation truth, with point
  queries, delta CRLs and push listeners;
* :mod:`authority` — the registry's network face (OCSP-style status RPC
  + CRL pull RPC);
* :mod:`bus` — publish/subscribe invalidation over simnet topic routing;
* :mod:`strategies` — ttl-only / pull / online / push propagation as
  first-class objects (experiment E15 sweeps them);
* :mod:`coherence` — per-domain agents that selectively invalidate PEP
  decision caches, PDP policy caches and gateway remote-decision caches.
"""

from .authority import (
    CRL_ACTION,
    RevocationAuthority,
    STATUS_ACTION,
    crl_request,
    parse_status,
    status_request,
)
from .bus import (
    BATCH_INVALIDATION_KIND,
    INVALIDATION_TOPIC,
    INVALIDATION_KIND,
    InvalidationBus,
)
from .coherence import CoherenceAgent
from .records import (
    RevocationError,
    RevocationKind,
    RevocationRecord,
    certificate_target,
    parse_records,
    serialize_records,
    subject_access_target,
    trust_edge_target,
    verify_record,
)
from .registry import RevocationListener, RevocationRegistry
from .strategies import (
    HybridStrategy,
    OnlineStatusStrategy,
    PropagationStrategy,
    PullStrategy,
    PushStrategy,
    TtlOnlyStrategy,
)

__all__ = [
    "BATCH_INVALIDATION_KIND",
    "CRL_ACTION",
    "CoherenceAgent",
    "INVALIDATION_TOPIC",
    "HybridStrategy",
    "INVALIDATION_KIND",
    "InvalidationBus",
    "OnlineStatusStrategy",
    "PropagationStrategy",
    "PullStrategy",
    "PushStrategy",
    "RevocationAuthority",
    "RevocationError",
    "RevocationKind",
    "RevocationListener",
    "RevocationRecord",
    "RevocationRegistry",
    "STATUS_ACTION",
    "TtlOnlyStrategy",
    "certificate_target",
    "crl_request",
    "parse_records",
    "parse_status",
    "serialize_records",
    "status_request",
    "subject_access_target",
    "trust_edge_target",
    "verify_record",
]
