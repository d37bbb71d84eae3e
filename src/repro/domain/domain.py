"""Administrative domains: the unit of autonomy in the paper's model.

An :class:`AdministrativeDomain` owns a certificate authority, an
identity provider, the four authorisation components, and the Web-Service
resources it protects.  Fig. 1 of the paper shows a Virtual Organisation
as a collection of exactly these domains; :mod:`repro.domain.virtual_org`
assembles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..components.base import ComponentIdentity
from ..components.pap import PolicyAdministrationPoint
from ..components.pdp import PdpConfig, PolicyDecisionPoint
from ..components.pep import PepConfig, PolicyEnforcementPoint
from ..components.pip import AttributeStore, PolicyInformationPoint
from ..saml.assertions import (
    Assertion,
    AssertionError_,
    SignedAssertion,
    validate_assertion,
)
from ..simnet.network import INTRA_DOMAIN_LATENCY, Link, Network
from ..wss.keys import KeyStore
from ..wss.pki import CertificateAuthority, TrustValidator
from .identity import IdentityProvider, Subject
from .trust import TrustKind

if TYPE_CHECKING:
    from .virtual_org import VirtualOrganization

#: Lifetime of component certificates (effectively the whole simulation).
COMPONENT_CERT_LIFETIME = 10 * 365 * 86400.0


@dataclass
class WebServiceResource:
    """A protected resource/service exposed by a domain (a "WS" in Fig. 1)."""

    resource_id: str
    domain: str
    pep: PolicyEnforcementPoint
    description: str = ""


class AdministrativeDomain:
    """One autonomous domain with its own CA, IdP and authz components.

    Args:
        name: domain name, e.g. ``"physics-lab"``.
        network: shared simulated network.
        keystore: shared key store (the "mathematics", see wss.keys).
        parent_ca: optional parent CA; when given, this domain's CA is an
            intermediate certified by it (e.g. a VO root), otherwise the
            domain runs its own self-signed root.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        keystore: KeyStore,
        parent_ca: Optional[CertificateAuthority] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.keystore = keystore
        self.ca = CertificateAuthority(f"ca.{name}", keystore, parent=parent_ca)
        #: Which certificate chains this domain validates: its own CA's
        #: and, once a VO creates it, every member's through the VO root.
        self.validator = TrustValidator(keystore, anchors=[self.ca])
        self.pap: Optional[PolicyAdministrationPoint] = None
        self.pdp: Optional[PolicyDecisionPoint] = None
        self.pip: Optional[PolicyInformationPoint] = None
        self.idp: Optional[IdentityProvider] = None
        self.peps: dict[str, PolicyEnforcementPoint] = {}
        self.resources: dict[str, WebServiceResource] = {}
        self.subjects: dict[str, Subject] = {}
        #: The VO that created this domain, whose trust graph
        #: :meth:`accept` reads; None for a standalone domain.
        self.vo: Optional[VirtualOrganization] = None

    # -- identity helpers ----------------------------------------------------------

    def component_identity(self, component_name: str) -> ComponentIdentity:
        """Mint key material + certificate for one component of this domain."""
        keypair = self.keystore.generate(label=f"{self.name}:{component_name}")
        certificate = self.ca.issue(
            subject=component_name,
            public_key=keypair.public,
            not_before=0.0,
            lifetime=COMPONENT_CERT_LIFETIME,
        )
        return ComponentIdentity(
            name=component_name,
            keypair=keypair,
            certificate=certificate,
            keystore=self.keystore,
            validator=self.validator,
        )

    def accept(
        self,
        signed: SignedAssertion,
        kind: TrustKind,
        at: float,
        audience: Optional[str] = None,
    ) -> Assertion:
        """Admit an identity assertion or capability; returns its assertion.

        The signer's domain is the member whose CA issued the signing
        certificate.  A chain to the VO root proves only that it is a
        member: the artefact is admitted if that domain is this one or
        the VO's trust graph says this domain trusts it for ``kind``,
        and the assertion then validates (signature, chain, window,
        audience).

        Raises:
            AssertionError_: with the reason for a rejection.
        """
        issuer = signed.signed.certificate.issuer
        members = self.vo.domains.values() if self.vo is not None else [self]
        signer = next((m.name for m in members if m.ca.name == issuer), None)
        if signer != self.name and (
            signer is None or not self.vo.trust.trusts(self.name, signer, kind)
        ):
            raise AssertionError_(
                f"domain {self.name!r} does not trust {signer or issuer!r} "
                f"for {kind.value}"
            )
        return validate_assertion(
            signed, self.keystore, self.validator, at, expected_audience=audience
        )

    # -- component construction -----------------------------------------------------

    def _address(self, role: str) -> str:
        return f"{role}.{self.name}"

    def _intra_domain_link(self, address: str) -> None:
        """Components of one domain talk over the fast intra-domain link."""
        for existing in self._component_addresses():
            if existing != address:
                self.network.set_link(
                    existing, address, Link(latency=INTRA_DOMAIN_LATENCY)
                )

    def _component_addresses(self) -> list[str]:
        out = []
        for component in (self.pap, self.pdp, self.pip, self.idp):
            if component is not None:
                out.append(component.name)
        out.extend(pep.name for pep in self.peps.values())
        return out

    def create_pap(self, **kwargs) -> PolicyAdministrationPoint:
        address = self._address("pap")
        self.pap = PolicyAdministrationPoint(
            address,
            self.network,
            domain=self.name,
            identity=self.component_identity(address),
            **kwargs,
        )
        self._intra_domain_link(address)
        return self.pap

    def create_pip(self, store: Optional[AttributeStore] = None) -> PolicyInformationPoint:
        address = self._address("pip")
        self.pip = PolicyInformationPoint(
            address,
            self.network,
            store=store,
            domain=self.name,
            identity=self.component_identity(address),
        )
        self._intra_domain_link(address)
        return self.pip

    def create_pdp(
        self, config: Optional[PdpConfig] = None, suffix: str = ""
    ) -> PolicyDecisionPoint:
        address = self._address(f"pdp{suffix}")
        pdp = PolicyDecisionPoint(
            address,
            self.network,
            domain=self.name,
            identity=self.component_identity(address),
            pap_address=self.pap.name if self.pap else None,
            pip_addresses=[self.pip.name] if self.pip else [],
            config=config,
        )
        if not suffix:
            self.pdp = pdp
        self._intra_domain_link(address)
        return pdp

    def create_idp(self) -> IdentityProvider:
        address = self._address("idp")
        self.idp = IdentityProvider(
            address,
            self.network,
            domain=self.name,
            identity=self.component_identity(address),
        )
        self._intra_domain_link(address)
        return self.idp

    def create_pep(
        self, resource_id: str, config: Optional[PepConfig] = None
    ) -> PolicyEnforcementPoint:
        address = f"pep.{resource_id}.{self.name}"
        pep = PolicyEnforcementPoint(
            address,
            self.network,
            domain=self.name,
            identity=self.component_identity(address),
            pdp_address=self.pdp.name if self.pdp else None,
            config=config,
        )
        self.peps[resource_id] = pep
        self._intra_domain_link(address)
        return pep

    def standard_layout(self) -> "AdministrativeDomain":
        """Create the canonical PAP + PIP + PDP + IdP quartet (Fig. 1)."""
        self.create_pap()
        self.create_pip()
        self.create_pdp()
        self.create_idp()
        return self

    # -- resources and subjects ---------------------------------------------------------

    def expose_resource(
        self,
        resource_id: str,
        description: str = "",
        pep_config: Optional[PepConfig] = None,
    ) -> WebServiceResource:
        """Expose a Web Service resource behind a fresh PEP."""
        pep = self.create_pep(resource_id, config=pep_config)
        resource = WebServiceResource(
            resource_id=resource_id,
            domain=self.name,
            pep=pep,
            description=description,
        )
        self.resources[resource_id] = resource
        return resource

    def add_subject(self, subject: Subject) -> Subject:
        if subject.home_domain != self.name:
            raise ValueError(
                f"subject {subject.subject_id!r} is homed in "
                f"{subject.home_domain!r}, not {self.name!r}"
            )
        self.subjects[subject.subject_id] = subject
        if self.idp is not None:
            self.idp.register_subject(subject)
        if self.pip is not None:
            for attr_name, values in subject.attributes.items():
                from ..xacml.attributes import string

                self.pip.store.set_subject_attribute(
                    subject.subject_id,
                    attr_name,
                    [string(v) for v in values],
                )
        return subject

    def new_subject(self, subject_id: str, **attributes: list[str]) -> Subject:
        subject = Subject(
            subject_id=subject_id,
            home_domain=self.name,
            attributes=dict(attributes),
        )
        return self.add_subject(subject)

    def __repr__(self) -> str:
        return (
            f"AdministrativeDomain({self.name}, resources={len(self.resources)}, "
            f"subjects={len(self.subjects)})"
        )
