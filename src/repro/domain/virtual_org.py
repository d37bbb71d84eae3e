"""Virtual Organisations: the multi-domain environment of Fig. 1.

"A multi-domain computing environment, when composed to address a
specific business or science related problem, is often referred to as a
Virtual Organisation" (paper §2.1).  A :class:`VirtualOrganization`
gathers administrative domains under a VO root CA, keeps the trust graph
between them, grants subjects VO membership attributes, and can host
VO-level services such as a capability service.
"""

from __future__ import annotations

from ..simnet.network import Network
from ..wss.keys import KeyStore
from ..wss.pki import CertificateAuthority
from .domain import AdministrativeDomain
from .identity import SUBJECT_VO_MEMBERSHIP, Subject
from .trust import TrustGraph, TrustKind


class VirtualOrganization:
    """A named collaboration of administrative domains.

    Every member domain's CA is certified under the VO root, so members
    validate each other's certificates; what a member *accepts* from
    another is the trust graph's to say (:attr:`trust`).

    Args:
        name: VO name, e.g. ``"climate-science-vo"``.
        network: shared simulated network.
        keystore: shared key store.
    """

    def __init__(self, name: str, network: Network, keystore: KeyStore) -> None:
        self.name = name
        self.network = network
        self.keystore = keystore
        self.root_ca = CertificateAuthority(f"ca.vo.{name}", keystore)
        self.trust = TrustGraph()
        self.domains: dict[str, AdministrativeDomain] = {}

    # -- membership -----------------------------------------------------------

    def create_domain(self, domain_name: str) -> AdministrativeDomain:
        """Create a member domain certified under the VO root."""
        if domain_name in self.domains:
            raise ValueError(f"domain {domain_name!r} already in VO {self.name!r}")
        domain = AdministrativeDomain(
            domain_name,
            self.network,
            self.keystore,
            parent_ca=self.root_ca,
        )
        domain.vo = self
        # Members validate each other's component certificates through
        # the root; each validator needs the root as anchor and sibling
        # CAs as intermediates.
        domain.validator.add_anchor(self.root_ca)
        self.domains[domain_name] = domain
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

    def establish_trust(self, truster: str, trusted: str, kind: TrustKind) -> None:
        """Record that ``truster`` accepts ``kind`` artefacts from
        ``trusted``.  The PKI is left alone: membership already chains
        every member to the root."""
        self.trust.establish(truster, trusted, kind)

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

    def __repr__(self) -> str:
        return f"VirtualOrganization({self.name}, domains={sorted(self.domains)})"
