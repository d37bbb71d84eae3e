"""Service registry: UDDI-style discovery of authorisation components.

Section 3.2 of the paper argues that static PEP→PDP bindings "do not fit
into large computing environments spanning multiple separate
administrative domains ... a discovery mechanism needs to be employed."
The registry is that mechanism; experiment E10 compares static binding
against registry lookups under PDP churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .wsdl import ServiceDescription


class RegistryError(Exception):
    """Raised on registration conflicts or failed lookups."""


@dataclass
class RegistryEntry:
    description: ServiceDescription
    registered_at: float
    healthy: bool = True


class ServiceRegistry:
    """An in-memory service registry with liveness hints.

    The registry itself is a passive directory: *liveness* is reported by
    registrants (or by a health-prober in :mod:`repro.core.discovery`),
    mirroring how UDDI deployments pair with heartbeat monitors.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self.lookups = 0

    def register(self, description: ServiceDescription, at: float = 0.0) -> None:
        if description.name in self._entries:
            raise RegistryError(f"service {description.name!r} already registered")
        self._entries[description.name] = RegistryEntry(
            description=description, registered_at=at
        )

    def deregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def mark_health(self, name: str, healthy: bool) -> None:
        entry = self._entries.get(name)
        if entry is not None:
            entry.healthy = healthy

    def is_healthy(self, name: str) -> bool:
        """Registered and not marked unhealthy."""
        entry = self._entries.get(name)
        return entry is not None and entry.healthy

    def lookup(self, name: str) -> ServiceDescription:
        self.lookups += 1
        entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(f"no service named {name!r}")
        return entry.description

    def find(
        self,
        service_type: Optional[str] = None,
        domain: Optional[str] = None,
        healthy_only: bool = True,
        predicate: Optional[Callable[[ServiceDescription], bool]] = None,
    ) -> list[ServiceDescription]:
        """All registered services matching the given filters."""
        self.lookups += 1
        out = []
        for entry in self._entries.values():
            if healthy_only and not entry.healthy:
                continue
            desc = entry.description
            if service_type is not None and desc.service_type != service_type:
                continue
            if domain is not None and desc.domain != domain:
                continue
            if predicate is not None and not predicate(desc):
                continue
            out.append(desc)
        return out

    def find_one(
        self, service_type: str, domain: Optional[str] = None
    ) -> Optional[ServiceDescription]:
        matches = self.find(service_type=service_type, domain=domain)
        return matches[0] if matches else None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries
