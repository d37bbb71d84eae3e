"""PDP discovery: from static bindings to registry lookups with health.

Paper §3.2, "Location of Policy Decision Points": static PEP→PDP
bindings "are easy to design and implement" but "do not fit into large
computing environments ... In such cases a discovery mechanism needs to
be employed."  This module provides that mechanism:

* PDPs register in a :class:`~repro.wsvc.registry.ServiceRegistry`;
* a :class:`HealthProber` pings registered PDPs in turn, a round a
  period, and marks them (un)healthy — a prober that is down marks
  nothing;
* :func:`discovering_dispatcher` builds the PEP's
  :class:`~repro.components.fabric.DecisionDispatcher` over the
  registered PDPs, sending to a healthy PDP of the PEP's domain first,
  then to one of any domain the PEP's domain delegates decisions to.

Experiment E10 compares static binding vs discovery under PDP churn.
"""

from __future__ import annotations

from typing import Callable

from ..components.base import Component
from ..components.fabric import DecisionDispatcher, HealthyFirstRouting
from ..simnet.network import Network
from ..wsvc.registry import ServiceRegistry
from ..wsvc.wsdl import ServiceDescription, pdp_description


class HealthProber(Component):
    """Periodically pings services and updates registry health marks.

    A round pings every registered service in turn; the next is due a
    period after it ends, and rounds due while the prober is down run
    nothing (see :meth:`Component.every`).
    """

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
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.every(self.period, self._probe_all)

    def _probe_all(self, end: Callable[[], None]) -> None:
        self.in_turn(self.registry.find(healthy_only=False), self._probe, end)

    def _probe(self, description: ServiceDescription, settled: Callable[[], None]) -> None:
        self.probes_sent += 1

        def mark(healthy: bool) -> None:
            if healthy != (description in self.registry.find(healthy_only=True)):
                self.state_changes += 1
            self.registry.mark_health(description.name, healthy)
            settled()

        self.ask(
            description.address,
            "ping",
            "<Ping/>",
            lambda _: mark(True),
            lambda _: mark(False),
            timeout=self.probe_timeout,
        )


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


def register_pdp(registry: ServiceRegistry, pdp_name: str, domain: str) -> None:
    """Convenience: publish a PDP's WSDL-lite description."""
    registry.register(pdp_description(name=pdp_name, address=pdp_name, domain=domain))
