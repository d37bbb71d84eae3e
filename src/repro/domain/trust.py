"""Inter-domain trust relationships.

"Due to the highly distributed nature of shared resources and a limited
trust between collaborating partners such sharing needs to be controlled"
(paper §2.1).  The trust graph records *which domain trusts which other
domain for what purpose*; the PKI layer then realises each edge by
installing the trusted domain's CA as a validation anchor.

Trust kinds follow the paper's decomposition:

* ``IDENTITY``   — accept identity/attribute assertions issued by the
  other domain's IdP (identity-based style);
* ``CAPABILITY`` — accept capability tokens minted by the other domain's
  (or the VO's) capability service (push model, Fig. 2);
* ``DECISION``   — accept authorisation *decisions* from the other
  domain's PDP (cross-domain decision delegation, §3.2 autonomy).
"""

from __future__ import annotations

import enum


class TrustKind(enum.Enum):
    IDENTITY = "identity"
    CAPABILITY = "capability"
    DECISION = "decision"


class TrustGraph:
    """The VO-wide record of inter-domain trust."""

    def __init__(self) -> None:
        #: Directed ``(truster, trusted, kind)``: ``truster`` accepts
        #: artefacts of ``kind`` from ``trusted``.
        self._edges: set[tuple[str, str, TrustKind]] = set()
        #: Optional unified revocation registry (duck-typed; see
        #: repro.revocation).  Bound, every edge revocation is recorded
        #: there so cross-domain coherence can propagate it.
        self._revocation_registry = None

    def bind_revocation_registry(self, registry) -> None:
        self._revocation_registry = registry

    def establish(self, truster: str, trusted: str, kind: TrustKind) -> None:
        """Record that ``truster`` now trusts ``trusted`` for ``kind``."""
        if truster != trusted:  # self-trust is implicit
            self._edges.add((truster, trusted, kind))

    def revoke(self, truster: str, trusted: str, kind: TrustKind) -> bool:
        key = (truster, trusted, kind)
        if key in self._edges:
            self._edges.remove(key)
            if self._revocation_registry is not None:
                self._revocation_registry.revoke_trust_edge(
                    truster, trusted, kind.value
                )
            return True
        return False
