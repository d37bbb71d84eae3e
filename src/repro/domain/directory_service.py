"""The resource directory as a *service* on the simulated network.

PR 4's :class:`~repro.domain.directory.ResourceDirectory` is an
in-process table every gateway reads for free — which makes its
staleness invisible to experiments.  In a real VO the directory is a
registry *service*: gateways look governance up over the network, cache
the answers under a TTL, and a governance transfer takes time to reach
every cached copy.  This module models exactly that so E18 can price
directory staleness:

* :class:`DirectoryService` wraps the authoritative
  :class:`~repro.domain.directory.ResourceDirectory` behind a lookup
  RPC (``directory.lookup``).  :meth:`DirectoryService.transfer` moves
  governance, bumps the directory epoch and publishes the change on a
  network topic — the same simnet topic routing the revocation
  :class:`~repro.revocation.bus.InvalidationBus` rides — so subscribed
  caches converge at push speed rather than TTL speed;
* :class:`DirectoryClient` is one gateway's resolver over the service:
  a :class:`~repro.components.cache.TtlCache` of resource → governing
  domain (negative answers cached too), refreshed by lookups on miss
  and patched in place by transfer notices.  Its
  :meth:`~DirectoryClient.resolver` plugs into a federated gateway's
  ``resolve_domain``: cache hits answer at once, misses are asked
  about in turn.  :meth:`~DirectoryClient.authoritative_resolver`
  (always one lookup per request, cache refreshed as a side effect)
  plugs into ``resolve_authoritative`` so the *serving* gateway
  detects a stale origin's misroutes and re-forwards instead of
  mis-deciding.

An unreachable or faulting directory service degrades fail-safe, but
the safe default differs per side: an *origin-side* resolve treats the
resource as locally governed (the local decision for a foreign
resource is typically NotApplicable → deny), while the *serving-side*
authoritative re-check hands the gateway a
:class:`DirectoryLookupError` so it answers Indeterminate — deciding a
forwarded request under a possibly-stale local policy could mis-grant,
which is the one thing the re-check exists to prevent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Union
from xml.sax.saxutils import quoteattr

from ..components.base import DEFAULT_TIMEOUT, Component, RpcFault
from ..components.cache import TtlCache
from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.context import RequestContext
from ..xmlutil import parse_attrs
from .directory import DomainResolver, ResourceDirectory

#: Lookup RPC between a directory client and the directory service.
LOOKUP_ACTION = "directory.lookup"
#: Topic publication carrying one governance transfer (epoch bump).
TRANSFER_KIND = "directory.transfer"
#: Default topic directory change notices ride on.
DIRECTORY_TOPIC = "directory"

#: What a lookup resolves to: the governing domain, None (unknown, or
#: locally governed), or the error that left it unanswered.
Answer = Union[str, None, Exception]

#: Cache sentinel distinguishing "cached: unknown resource" (treated as
#: locally governed) from a cache miss (TtlCache.get returns None).
_UNKNOWN = ""


class DirectoryLookupError(Exception):
    """A lookup could not be completed.

    Only the fail-*closed* path (the serving-side misroute re-check)
    sees it: "treat as local" is a safe default for an origin-side
    resolve (the local decision ends in a deny for foreign resources),
    but on the serving side it would let a domain decide a forwarded
    request under its own possibly-stale policy — a mis-grant, not a
    fail-safe.
    """


@dataclass(frozen=True)
class DirectoryRecord:
    """One resolved governance fact, stamped with the directory epoch."""

    resource_id: str
    domain: Optional[str]
    epoch: int

    def to_xml(self, tag: str = "DirectoryRecord") -> str:
        return (
            f"<{tag} Resource={quoteattr(self.resource_id)} "
            f"Domain={quoteattr(self.domain or _UNKNOWN)} "
            f'Epoch="{self.epoch}"/>'
        )

    @classmethod
    def from_xml(cls, xml_text: str, tag: str = "DirectoryRecord") -> "DirectoryRecord":
        match = re.match(rf"<{tag} ([^>]*)/>$", xml_text.strip())
        if match is None:
            raise ValueError(f"not a {tag}")
        attrs = parse_attrs(match.group(1))
        for required in ("Resource", "Domain", "Epoch"):
            if required not in attrs:
                raise ValueError(f"{tag} missing {required}")
        return cls(
            resource_id=attrs["Resource"],
            domain=attrs["Domain"] or None,
            epoch=int(attrs["Epoch"]),
        )


def lookup_request(resource_id: str) -> str:
    return f"<DirectoryLookup Resource={quoteattr(resource_id)}/>"


def parse_lookup(xml_text: str) -> str:
    match = re.match(r"<DirectoryLookup ([^>]*)/>$", xml_text.strip())
    if match is None:
        raise ValueError("not a DirectoryLookup")
    attrs = parse_attrs(match.group(1))
    if "Resource" not in attrs:
        raise ValueError("DirectoryLookup missing Resource")
    return attrs["Resource"]


class DirectoryService(Component):
    """Authoritative governance lookups plus transfer propagation.

    Args:
        directory: the authoritative resource directory this service
            fronts (its ``epoch`` is the service's epoch).

    Transfer notices are published on :data:`DIRECTORY_TOPIC`.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        directory: ResourceDirectory,
    ) -> None:
        super().__init__(name, network)
        self.directory = directory
        self.lookups_served = 0
        self.transfers_published = 0
        self.notices_pushed = 0
        self.on(LOOKUP_ACTION, self._handle_lookup)

    @property
    def epoch(self) -> int:
        return self.directory.epoch

    def _handle_lookup(self, message: Message) -> str:
        try:
            resource_id = parse_lookup(str(message.payload))
        except ValueError as exc:
            raise RpcFault("directory:bad-lookup", str(exc)) from exc
        self.lookups_served += 1
        return DirectoryRecord(
            resource_id=resource_id,
            domain=self.directory.domain_of(resource_id),
            epoch=self.directory.epoch,
        ).to_xml()

    def transfer(self, resource_id: str, domain_name: str) -> int:
        """Move governance authoritatively and push the epoch bump.

        Delegates to :meth:`ResourceDirectory.transfer` (so unknown
        resources raise :class:`KeyError` here too); an *effective*
        move publishes one :data:`TRANSFER_KIND` notice per subscribed
        client over the topic's per-link delivery — latency, loss and
        partitions all apply, which is why the client TTL remains the
        staleness backstop.  Returns the directory epoch after the move.
        """
        before = self.directory.epoch
        epoch = self.directory.transfer(resource_id, domain_name)
        if epoch != before:
            self.transfers_published += 1
            self.notices_pushed += self.network.publish(
                self.name,
                DIRECTORY_TOPIC,
                TRANSFER_KIND,
                DirectoryRecord(
                    resource_id=resource_id,
                    domain=domain_name,
                    epoch=epoch,
                ).to_xml(tag="DirectoryTransfer"),
            )
        return epoch

    def __repr__(self) -> str:
        return (
            f"DirectoryService({self.name}, epoch={self.epoch}, "
            f"resources={len(self.directory)})"
        )


class DirectoryClient(Component):
    """One gateway's TTL'd, push-patched view of the directory service.

    Args:
        service_address: the :class:`DirectoryService` to query.
        ttl: lookup-cache entry lifetime in simulated seconds; 0
            disables caching (every resolve is a lookup RPC).
        subscribe: receive transfer notices on the directory topic and
            patch cached entries in place (push convergence); without
            it staleness is bounded only by ``ttl``.

    A lookup's RPC deadline towards the service is
    :data:`~repro.components.base.DEFAULT_TIMEOUT`.

    A crash fails the lookups on the wire at once (see
    :attr:`~repro.components.base.Component.caller_kinds`): the gateway
    waiting on them is up, and fails them safe or closed.
    """

    caller_kinds = frozenset({LOOKUP_ACTION})

    def __init__(
        self,
        name: str,
        network: Network,
        service_address: str,
        ttl: float = 5.0,
        domain: str = "",
        subscribe: bool = True,
    ) -> None:
        super().__init__(name, network, domain)
        self.service_address = service_address
        self.cache: TtlCache[str, str] = TtlCache(ttl=ttl, clock=lambda: self.now)
        #: Directory epoch at which each resource's cached governance
        #: was learned.  The dedup key for notices must be
        #: *per-resource*: the epoch is directory-global, so a lookup
        #: reply for res.B can carry the epoch of a transfer notice for
        #: res.A that is still in flight — a global high-water mark
        #: would silently drop that notice and defeat push convergence.
        self._resource_epochs: dict[str, int] = {}
        #: Telemetry only: highest directory epoch seen on any channel.
        self.known_epoch = 0
        self.lookups_sent = 0
        self.authoritative_lookups = 0
        self.failed_lookups = 0
        self.transfer_notices = 0
        self.subscribed = subscribe
        if subscribe:
            network.subscribe(DIRECTORY_TOPIC, name)
            self.on(TRANSFER_KIND, self._handle_transfer)

    # -- push convergence ---------------------------------------------------------

    def _handle_transfer(self, message: Message) -> None:
        try:
            record = DirectoryRecord.from_xml(
                str(message.payload), tag="DirectoryTransfer"
            )
        except ValueError:
            return None  # malformed notice: the TTL backstop still applies
        self.transfer_notices += 1
        self.known_epoch = max(self.known_epoch, record.epoch)
        if record.epoch <= self._resource_epochs.get(record.resource_id, -1):
            # An out-of-order replay for *this resource*: newer state
            # (a later notice or a fresher lookup) must not be undone.
            return None
        self._resource_epochs[record.resource_id] = record.epoch
        # The notice is authoritative: patch (and TTL-refresh) in place
        # instead of merely invalidating, saving the re-lookup RPC.
        self.cache.put(record.resource_id, record.domain or _UNKNOWN)
        return None

    # -- resolution ---------------------------------------------------------------

    def lookup(self, resource_id: str, then: Callable[[Answer], None]) -> None:
        """Ask the service once; ``then`` gets the governing domain
        (None: unknown) or the :class:`DirectoryLookupError` that left
        it unanswered."""
        self.lookups_sent += 1

        def failed(exc: Exception) -> None:
            self.failed_lookups += 1
            then(DirectoryLookupError(f"directory lookup for {resource_id!r} failed: {exc}"))

        def answered(reply: Message) -> None:
            try:
                record = DirectoryRecord.from_xml(str(reply.payload))
            except ValueError as exc:
                failed(exc)
                return
            self.known_epoch = max(self.known_epoch, record.epoch)
            if record.epoch >= self._resource_epochs.get(resource_id, -1):
                # Same per-resource guard as notices: a reply that raced a
                # newer transfer notice must not clobber the patched entry.
                self._resource_epochs[resource_id] = record.epoch
                self.cache.put(resource_id, record.domain or _UNKNOWN)
            then(record.domain)

        self.ask(
            self.service_address,
            LOOKUP_ACTION,
            lookup_request(resource_id),
            answered,
            failed,
            timeout=DEFAULT_TIMEOUT,
        )

    def domain_for(
        self,
        resource_id: Optional[str],
        then: Callable[[Answer], None],
        authoritative: bool = False,
    ) -> None:
        """Resolve one resource; ``then`` gets its governing domain, None
        meaning locally governed — at once on a cache hit.

        ``authoritative`` skips the cached answer (the serving-side
        misroute re-check) but still refreshes the cache with what the
        service said, and hands a failed lookup's error over; otherwise
        a failed lookup resolves to None.
        """
        if resource_id is None:
            then(None)
            return
        tracer = self.network.tracer
        started = self.now if tracer.enabled else 0.0
        cached = None if authoritative else self.cache.get(resource_id)

        def resolved(domain: Answer, hit: bool = False) -> None:
            if isinstance(domain, Exception):
                if authoritative:
                    then(domain)
                    return
                domain = None
            if tracer.enabled:
                self._trace_resolve(started, resource_id, domain, hit, authoritative)
            then(domain)

        if cached is not None:
            resolved(cached or None, hit=True)
            return
        if authoritative:
            self.authoritative_lookups += 1
        self.lookup(resource_id, resolved)

    def _trace_resolve(
        self,
        started: float,
        resource_id: str,
        domain: Optional[str],
        cached: bool,
        authoritative: bool,
    ) -> None:
        """One ``directory.resolve`` span: a cache hit is zero-duration,
        a lookup runs from its send to its answer."""
        self.network.tracer.emit(
            "directory.resolve",
            self.name,
            self.domain,
            start=started,
            end=self.now,
            resource=resource_id,
            governing=domain or "",
            cached=cached,
            authoritative=authoritative,
        )

    def resolver(self) -> DomainResolver:
        """TTL'd resolver (a gateway's ``resolve_domain``)."""
        return partial(self._resolve, authoritative=False)

    def authoritative_resolver(self) -> DomainResolver:
        """Always-fresh resolver (a gateway's ``resolve_authoritative``).

        A request whose lookup fails is answered with its
        :class:`DirectoryLookupError` — the serving gateway fails it
        closed instead of serving it under local policy.
        """
        return partial(self._resolve, authoritative=True)

    def _resolve(
        self,
        requests: Sequence[RequestContext],
        then: Callable[[list], None],
        authoritative: bool,
    ) -> None:
        """The requests' resources, resolved in turn."""
        domains: list[Answer] = []

        def resolve(request: RequestContext, settled: Callable[[], None]) -> None:
            def got(domain: Answer) -> None:
                domains.append(domain)
                settled()

            self.domain_for(request.resource_id, got, authoritative)

        self.in_turn(requests, resolve, lambda: then(domains))

    def __repr__(self) -> str:
        return (
            f"DirectoryClient({self.name}, service={self.service_address!r}, "
            f"epoch={self.known_epoch}, cached={len(self.cache)})"
        )
