"""Virtual Organisations: the multi-domain environment of Fig. 1.

"A multi-domain computing environment, when composed to address a
specific business or science related problem, is often referred to as a
Virtual Organisation" (paper §2.1).  A :class:`VirtualOrganization`
gathers administrative domains, wires the trust fabric between them
(cross-certifying CAs according to the trust graph), grants subjects VO
membership attributes, and can host VO-level services: a VO root CA, a
capability service, a top-level PAP for syndication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..simnet.network import Network
from ..wss.keys import KeyStore
from ..wss.pki import CertificateAuthority
from .domain import AdministrativeDomain
from .identity import SUBJECT_VO_MEMBERSHIP, Subject
from .trust import TrustGraph, TrustKind


@dataclass
class VoPolicyRecord:
    """A VO-wide policy distributed to member domains (bookkeeping)."""

    policy_id: str
    deployed_to: list[str] = field(default_factory=list)


class VirtualOrganization:
    """A named collaboration of administrative domains.

    Args:
        name: VO name, e.g. ``"climate-science-vo"``.
        network: shared simulated network.
        keystore: shared key store.
        with_root_ca: when True the VO runs its own root CA that member
            domain CAs get certified under (federated style); when False
            domains keep self-signed roots and trust is configured
            pairwise (ad-hoc style).
    """

    def __init__(
        self,
        name: str,
        network: Network,
        keystore: KeyStore,
        with_root_ca: bool = True,
    ) -> None:
        self.name = name
        self.network = network
        self.keystore = keystore
        self.root_ca: Optional[CertificateAuthority] = (
            CertificateAuthority(f"ca.vo.{name}", keystore) if with_root_ca else None
        )
        self.trust = TrustGraph()
        self.domains: dict[str, AdministrativeDomain] = {}
        self.vo_policies: dict[str, VoPolicyRecord] = {}

    # -- membership -----------------------------------------------------------

    def create_domain(self, domain_name: str) -> AdministrativeDomain:
        """Create a member domain (certified under the VO root if any)."""
        if domain_name in self.domains:
            raise ValueError(f"domain {domain_name!r} already in VO {self.name!r}")
        domain = AdministrativeDomain(
            domain_name,
            self.network,
            self.keystore,
            parent_ca=self.root_ca,
        )
        if self.root_ca is not None:
            # Members under a VO root can validate each other's component
            # certificates through the root; each validator needs the root
            # as anchor and sibling CAs as intermediates.
            domain.validator.add_anchor(self.root_ca)
        self.domains[domain_name] = domain
        if self.root_ca is not None:
            for other in self.domains.values():
                other.validator.add_intermediate(domain.ca)
                domain.validator.add_intermediate(other.ca)
        return domain

    def domain(self, name: str) -> AdministrativeDomain:
        try:
            return self.domains[name]
        except KeyError:
            raise KeyError(f"no domain {name!r} in VO {self.name!r}") from None

    # -- trust fabric ------------------------------------------------------------

    def establish_trust(
        self, truster: str, trusted: str, kind: TrustKind
    ) -> None:
        """Record trust and realise it in the PKI (anchor installation)."""
        self.trust.establish(truster, trusted, kind)
        truster_domain = self.domain(truster)
        trusted_domain = self.domain(trusted)
        truster_domain.trust_domain_ca(trusted_domain)

    def establish_mutual_trust(self, a: str, b: str, kind: TrustKind) -> None:
        self.establish_trust(a, b, kind)
        self.establish_trust(b, a, kind)

    def full_mesh_trust(self, kind: TrustKind) -> None:
        """Federated mode: everyone trusts everyone for ``kind``."""
        names = list(self.domains)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                self.establish_mutual_trust(a, b, kind)

    # -- VO membership attributes ---------------------------------------------------

    def grant_membership(self, subject: Subject, vo_role: str = "member") -> None:
        """Grant a subject VO membership, recorded in its home-domain PIP."""
        subject.add_attribute(SUBJECT_VO_MEMBERSHIP, f"{self.name}:{vo_role}")
        home = self.domains.get(subject.home_domain)
        if home is not None and home.pip is not None:
            from ..xacml.attributes import string

            home.pip.store.add_subject_value(
                subject.subject_id,
                SUBJECT_VO_MEMBERSHIP,
                string(f"{self.name}:{vo_role}"),
            )

    def members_of(self) -> list[str]:
        return list(self.domains)

    # -- VO-level policy distribution --------------------------------------------------

    def __repr__(self) -> str:
        return f"VirtualOrganization({self.name}, domains={sorted(self.domains)})"
