"""Federated environments: a VO built with pre-established trust.

Paper §2.1 distinguishes two ways multi-domain environments arise:

* **ad-hoc**: "peer-to-peer based bilateral collaborations where partners
  do not need to have previously established trust relationships";
* **federated**: "designed to simulate a similar environment to a single
  domain with pre-established trust-relationships between all
  collaborating partners".

Every experiment and example builds the federated shape, so this module
constructs that one; strangers outside it reach a resource through trust
negotiation (:mod:`repro.domain.trust_negotiation`).
"""

from __future__ import annotations

from ..simnet.network import Network
from ..wss.keys import KeyStore
from .trust import TrustKind
from .virtual_org import VirtualOrganization


def build_federation(
    name: str,
    domain_names: list[str],
    network: Network,
    keystore: KeyStore,
    kinds: tuple[TrustKind, ...] = (
        TrustKind.IDENTITY,
        TrustKind.CAPABILITY,
    ),
) -> VirtualOrganization:
    """Build a federated VO: common root CA and full-mesh trust for
    ``kinds``.

    Every domain gets the standard component layout so the result is
    immediately usable by experiments.
    """
    vo = VirtualOrganization(name, network, keystore)
    for domain_name in domain_names:
        vo.create_domain(domain_name).standard_layout()
    for kind in kinds:  # full mesh: every member trusts every other
        for truster in domain_names:
            for trusted in domain_names:
                vo.establish_trust(truster, trusted, kind)
    return vo
