"""Administrative domains: the unit of autonomy in the paper's model.

An :class:`AdministrativeDomain` owns a certificate authority, an
identity provider, the four authorisation components, and the Web-Service
resources it protects.  Fig. 1 of the paper shows a Virtual Organisation
as a collection of exactly these domains; :mod:`repro.domain.virtual_org`
assembles them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..components.base import ComponentIdentity
from ..components.fabric import DecisionDispatcher, LeastOutstandingRouting
from ..components.federation import FederatedGateway
from ..components.pap import PolicyAdministrationPoint
from ..components.pdp import PdpConfig, PolicyDecisionPoint
from ..components.pep import PepConfig, PolicyEnforcementPoint
from ..components.pip import AttributeStore, PolicyInformationPoint
from ..simnet.network import INTRA_DOMAIN_LATENCY, Link, Network
from ..wss.keys import KeyStore
from ..wss.pki import CertificateAuthority, TrustValidator
from .identity import IdentityProvider, Subject

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
        #: This domain's relying-party configuration: which CAs it trusts.
        self.validator = TrustValidator(keystore, anchors=[self.ca])
        self.pap: Optional[PolicyAdministrationPoint] = None
        self.pdp: Optional[PolicyDecisionPoint] = None
        self.pip: Optional[PolicyInformationPoint] = None
        self.idp: Optional[IdentityProvider] = None
        self.gateway: Optional[FederatedGateway] = None
        self.peps: dict[str, PolicyEnforcementPoint] = {}
        self.resources: dict[str, WebServiceResource] = {}
        self.subjects: dict[str, Subject] = {}

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

    def trust_domain_ca(self, other: "AdministrativeDomain") -> None:
        """Install another domain's CA as a trust anchor (cross-cert)."""
        self.validator.add_anchor(other.ca)

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
        for component in (self.pap, self.pdp, self.pip, self.idp, self.gateway):
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

    def create_gateway(
        self,
        resolve_domain=None,
        replicas: Optional[list[str]] = None,
        dispatcher: Optional[DecisionDispatcher] = None,
        **kwargs,
    ) -> FederatedGateway:
        """Create this domain's (federation-capable) decision gateway.

        Without an explicit ``dispatcher`` the gateway load-balances
        (least-outstanding) over ``replicas`` (addresses), defaulting to
        the domain's own PDP.  ``resolve_domain`` is usually a
        :meth:`~repro.domain.directory.ResourceDirectory.resolver`;
        peer links come from :func:`~repro.domain.federation.
        federate_gateways`, which checks the VO trust graph.
        """
        address = self._address("gateway")
        if dispatcher is None:
            addresses = list(replicas) if replicas else (
                [self.pdp.name] if self.pdp is not None else []
            )
            if not addresses:
                raise ValueError(
                    f"domain {self.name!r} has no PDP to dispatch to; "
                    "call create_pdp() first or pass replicas/dispatcher"
                )
            dispatcher = DecisionDispatcher(
                addresses, policy=LeastOutstandingRouting()
            )
        self.gateway = FederatedGateway(
            address,
            self.network,
            dispatcher,
            domain=self.name,
            identity=self.component_identity(address),
            resolve_domain=resolve_domain,
            **kwargs,
        )
        self._intra_domain_link(address)
        return self.gateway

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

    def standard_layout(
        self,
        pdp_config: Optional[PdpConfig] = None,
    ) -> "AdministrativeDomain":
        """Create the canonical PAP + PIP + PDP + IdP quartet (Fig. 1)."""
        self.create_pap()
        self.create_pip()
        self.create_pdp(config=pdp_config)
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
