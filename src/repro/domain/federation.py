"""Federated environments: a VO built with pre-established trust.

Paper §2.1 distinguishes two ways multi-domain environments arise:

* **ad-hoc**: "peer-to-peer based bilateral collaborations where partners
  do not need to have previously established trust relationships";
* **federated**: "designed to simulate a similar environment to a single
  domain with pre-established trust-relationships between all
  collaborating partners".

Every experiment and example builds the federated shape, so this module
constructs that one, with the agreement record that makes it auditable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..simnet.network import Network
from ..wss.keys import KeyStore
from .trust import TrustKind
from .virtual_org import VirtualOrganization


class CollaborationMode(enum.Enum):
    AD_HOC = "ad-hoc"
    FEDERATED = "federated"


@dataclass(frozen=True)
class FederationAgreement:
    """A bilateral (or VO-wide) record of what was agreed and when."""

    parties: tuple[str, ...]
    kinds: tuple[TrustKind, ...]
    mode: CollaborationMode
    established_at: float


def build_federation(
    name: str,
    domain_names: list[str],
    network: Network,
    keystore: KeyStore,
    kinds: tuple[TrustKind, ...] = (
        TrustKind.IDENTITY,
        TrustKind.CAPABILITY,
    ),
) -> tuple[VirtualOrganization, FederationAgreement]:
    """Build a federated VO: common root CA, full-mesh trust, one agreement.

    Every domain gets the standard component layout so the result is
    immediately usable by experiments.
    """
    vo = VirtualOrganization(name, network, keystore, with_root_ca=True)
    for domain_name in domain_names:
        vo.create_domain(domain_name).standard_layout()
    for kind in kinds:
        vo.full_mesh_trust(kind)
    agreement = FederationAgreement(
        parties=tuple(domain_names),
        kinds=kinds,
        mode=CollaborationMode.FEDERATED,
        established_at=network.now,
    )
    return vo, agreement
