"""The VO-wide resource directory: which domain governs which resource.

Cross-domain decision routing needs exactly one piece of shared
knowledge: for a given resource, *whose* policy applies — i.e. which
administrative domain's PDP tier is authoritative for it.  The paper's
Fig. 1 implies this mapping (every Web-Service resource lives inside
one domain); :class:`ResourceDirectory` makes it explicit and hands the
:class:`~repro.components.federation.FederatedGateway` a resolver over
it.

The directory is deliberately a plain replicated lookup table, not a
service on the simulated network: in a real deployment it is the
(slow-changing, aggressively cacheable) service registry, and modelling
its lookup traffic would only blur the decision-path measurements E18
is after.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..xacml.context import RequestContext

#: Resolver signature the federated gateway consumes:
#: ``resolve(requests, then)``, one call per drawn batch.  ``then`` gets
#: one answer per request, in order — its governing domain, None for
#: "locally governed", or the exception that left an authoritative
#: lookup unanswered — now or once a lookup on the wire lands.
DomainResolver = Callable[[Sequence[RequestContext], Callable[[list], None]], None]


class ResourceDirectory:
    """Maps resource identifiers to their governing domain.

    An unlisted resource's domain is None, "unknown" (the federated
    gateway then treats the resource as locally governed).
    """

    def __init__(self) -> None:
        self._governing: dict[str, str] = {}
        #: Monotone governance-change counter: bumped by every effective
        #: :meth:`transfer`, so cached resolutions can be epoch-checked
        #: (the :class:`~repro.domain.directory_service.DirectoryService`
        #: propagates bumps to subscribed lookup caches).
        self.epoch = 0

    def register(self, resource_id: str, domain_name: str) -> None:
        """Record that ``domain_name`` governs ``resource_id``.

        Re-registering under the *same* domain is idempotent; moving a
        resource between domains must be explicit (:meth:`transfer`) —
        a silently flipping directory is how routing loops are born.
        """
        existing = self._governing.get(resource_id)
        if existing is not None and existing != domain_name:
            raise ValueError(
                f"resource {resource_id!r} is already governed by "
                f"{existing!r}; use transfer() to move it"
            )
        self._governing[resource_id] = domain_name

    def transfer(self, resource_id: str, domain_name: str) -> int:
        """Move a *registered* resource's governance to another domain.

        Unknown resources raise :class:`KeyError` — a typo'd transfer
        must not mint a phantom route that silently swallows traffic.
        A same-domain transfer is a no-op.  Returns the directory epoch
        after the move (bumped only when governance actually changed).
        """
        existing = self._governing.get(resource_id)
        if existing is None:
            raise KeyError(
                f"resource {resource_id!r} is not registered; "
                "transfer() cannot create governance"
            )
        if existing != domain_name:
            self._governing[resource_id] = domain_name
            self.epoch += 1
        return self.epoch

    def domain_of(self, resource_id: str) -> Optional[str]:
        return self._governing.get(resource_id)

    def domains(self) -> set[str]:
        return set(self._governing.values())

    def __len__(self) -> int:
        return len(self._governing)

    def resolver(self) -> DomainResolver:
        """A resolver for federated gateways; it answers at once.  A
        request that names no resource, like one naming an unlisted
        resource, is locally governed."""

        def resolve(requests: Sequence[RequestContext], then: Callable[[list], None]) -> None:
            then([self.domain_of(request.resource_id) for request in requests])

        return resolve
