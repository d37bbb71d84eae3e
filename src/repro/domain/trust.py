"""Inter-domain trust relationships.

"Due to the highly distributed nature of shared resources and a limited
trust between collaborating partners such sharing needs to be controlled"
(paper §2.1).  The trust graph records *which domain trusts which other
domain for what purpose*, and it is the one record acceptance reads: a
certificate that chains to the VO root proves only that its holder's
domain is a member, and :meth:`~repro.domain.domain.AdministrativeDomain.
accept` admits an artefact signed in another member domain only while
the edge for its kind holds.

Trust kinds follow the paper's decomposition:

* ``IDENTITY``   — accept identity/attribute assertions issued by the
  other domain's IdP (identity-based style), and forwarded decision
  requests from its gateway, which carry that domain's claims about its
  own subjects;
* ``CAPABILITY`` — accept capability tokens minted by the other domain's
  (or the VO's) capability service (push model, Fig. 2);
* ``DECISION``   — accept authorisation *decisions* from the other
  domain's PDP (cross-domain decision delegation, §3.2 autonomy): the
  forwarding gateway enforces them.
"""

from __future__ import annotations

import enum


class TrustKind(enum.Enum):
    IDENTITY = "identity"
    CAPABILITY = "capability"
    DECISION = "decision"


class TrustGraph:
    """The VO-wide record of inter-domain trust.

    Withdrawal follows :class:`~repro.wss.pki.CertificateAuthority`:
    revocations are recorded in one place, the
    :class:`~repro.revocation.registry.RevocationRegistry` the graph is
    bound to.  Bound, :meth:`trusts` reads the registry, so an edge
    revoked by a ``TRUST_EDGE`` record issued anywhere in the deployment
    stops holding; unbound, the graph holds no revocations.  Registry
    records are permanent, CRL-style: an edge revoked there stays
    revoked.
    """

    def __init__(self) -> None:
        #: Directed ``(truster, trusted, kind)``: ``truster`` accepts
        #: artefacts of ``kind`` from ``trusted``.
        self._edges: set[tuple[str, str, TrustKind]] = set()
        self._revocation_registry = None

    def bind_revocation_registry(self, registry) -> None:
        self._revocation_registry = registry

    def establish(self, truster: str, trusted: str, kind: TrustKind) -> None:
        """Record that ``truster`` now trusts ``trusted`` for ``kind``."""
        if truster != trusted:  # self-trust is implicit
            self._edges.add((truster, trusted, kind))

    def trusts(self, truster: str, trusted: str, kind: TrustKind) -> bool:
        """Whether ``truster`` accepts ``kind`` artefacts from another
        domain ``trusted``: established and not revoked."""
        if (truster, trusted, kind) not in self._edges:
            return False
        registry = self._revocation_registry
        return registry is None or not registry.trust_edge_revoked(
            truster, trusted, kind.value
        )
