"""PDP discovery: from static bindings to registry lookups with health.

Paper §3.2, "Location of Policy Decision Points": static PEP→PDP
bindings "are easy to design and implement" but "do not fit into large
computing environments ... In such cases a discovery mechanism needs to
be employed."  This module provides that mechanism:

* PDPs register in a :class:`~repro.wsvc.registry.ServiceRegistry`;
* a :class:`HealthProber` pings registered PDPs on a period and marks
  them (un)healthy;
* :func:`discovering_dispatcher` builds the PEP's
  :class:`~repro.components.fabric.DecisionDispatcher` over the
  registered PDPs, sending to a healthy PDP of the PEP's domain first,
  then to one of any domain the PEP's domain delegates decisions to.

Experiment E10 compares static binding vs discovery under PDP churn.
"""

from __future__ import annotations

from ..components.base import Component, RpcFault, RpcTimeout
from ..components.fabric import DecisionDispatcher, HealthyFirstRouting
from ..simnet.network import Network
from ..wsvc.registry import ServiceRegistry
from ..wsvc.wsdl import pdp_description


class HealthProber(Component):
    """Periodically pings services and updates registry health marks."""

    def __init__(
        self,
        name: str,
        network: Network,
        registry: ServiceRegistry,
        period: float = 1.0,
        probe_timeout: float = 0.25,
    ) -> None:
        super().__init__(name, network)
        self.registry = registry
        self.period = period
        self.probe_timeout = probe_timeout
        self.probes_sent = 0
        self.state_changes = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        self.network.loop.schedule(self.period, self._probe_all)

    def _probe_all(self) -> None:
        if not self._running:
            return
        for description in self.registry.find(healthy_only=False):
            healthy = self._probe(description.address)
            entry_known_healthy = description in self.registry.find(
                healthy_only=True
            )
            if healthy != entry_known_healthy:
                self.state_changes += 1
            self.registry.mark_health(description.name, healthy)
        self._schedule_next()

    def _probe(self, address: str) -> bool:
        self.probes_sent += 1
        try:
            self.call(address, "ping", "<Ping/>", timeout=self.probe_timeout)
        except (RpcTimeout, RpcFault):
            return False
        return True


def discovering_dispatcher(
    registry: ServiceRegistry,
    home_domain: str,
    fallback_domains: tuple[str, ...] = (),
) -> DecisionDispatcher:
    """A dispatcher whose ring is the PDPs registered in ``registry``.

    Ring order: the PDPs of ``home_domain``, then those of each of
    ``fallback_domains`` (the domains home delegates decision making
    to).  Every query goes to the first PDP the registry marks healthy,
    a timeout fails over to the next healthy one, and with none healthy
    the PEP fails safe without sending.  ``routing.passed_over`` counts
    the queries that left the home domain's first PDP.

    The ring is read once, here: a PDP registered after the dispatcher
    is built is not in it (no caller registers one that late).
    """
    names = {
        description.address: description.name
        for domain in (home_domain, *fallback_domains)
        for description in registry.find(
            service_type="pdp", domain=domain, healthy_only=False
        )
    }
    return DecisionDispatcher(
        list(names),
        HealthyFirstRouting(lambda address: registry.is_healthy(names[address])),
    )


def register_pdp(
    registry: ServiceRegistry, pdp_name: str, domain: str, at: float = 0.0
) -> None:
    """Convenience: publish a PDP's WSDL-lite description."""
    registry.register(
        pdp_description(name=pdp_name, address=pdp_name, domain=domain), at=at
    )
