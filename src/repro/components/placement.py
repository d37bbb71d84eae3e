"""PDP placement: consistent-hash ownership of decision state.

Every experiment before E19 drives load over a handful of subjects, so
"PDP replica" meant *stateless compute*: any replica could answer any
request from the same small policy store.  At the north star's scale —
millions of distinct subjects, each carrying attribute state the PDP
must consult — the state itself becomes the scaling axis, and placement
(which replica owns which key range) becomes an architectural layer of
its own:

* :class:`PlacementMap` — a consistent-hash ring over PDP replica
  addresses.  Keys (subject or resource ids) map to owners through
  virtual nodes, so replica join/leave moves only ~1/N of the key
  space; ``epoch`` counts ring changes so stale routing views are
  detectable.
* :class:`PlacementSpec` — the placement contract a
  :class:`~repro.components.pdp.PdpConfig` carries: the shared ring
  plus the request attribute the tier shards by ("subject" or
  "resource").  Both the replica-side ownership checks and the
  client-side ``hash-subject`` / ``hash-resource`` routing policies
  read the same spec, so there is exactly one source of truth for who
  owns what.
* :class:`AttributePartition` — one replica's slice of the population's
  subject-attribute state.  Entries materialise lazily from an
  authoritative ``resolver`` (the population generator, a directory, a
  database) on first lookup — the "repopulate" half of the rebalance
  story — and a ring change evicts whatever the replica no longer owns
  (the "migrate away" half), so per-replica state cardinality tracks
  ~1/N of the touched key space instead of duplicating hot keys on
  every replica.

The XACML-engine side of the same story (partitioning a
:class:`~repro.xacml.engine.PolicyStore` by governed resource) lives in
:meth:`repro.xacml.engine.PolicyStore.partition_for`.
"""

from __future__ import annotations

import bisect
import hashlib
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..xacml.attributes import AttributeValue, DataType

#: What a placement layer may shard decision state by.
SHARD_KEYS = ("subject", "resource")

#: Stable hash functions usable for ring placement.  ``crc32`` is the
#: fast default; ``sha1`` trades speed for better small-key dispersion.
HASH_FUNCTIONS = ("crc32", "sha1")


def stable_hash(key: str, hash_name: str = "crc32") -> int:
    """Process-independent hash of one placement key.

    Python's builtin ``hash`` is salted per process, which would make
    shard ownership differ between the replica that stored a key and
    the client routing to it.  Placement therefore only ever uses
    explicitly stable digests.
    """
    data = key.encode("utf-8")
    if hash_name == "crc32":
        return zlib.crc32(data) & 0xFFFFFFFF
    if hash_name == "sha1":
        return int.from_bytes(hashlib.sha1(data).digest()[:8], "big")
    raise ValueError(
        f"unknown placement hash {hash_name!r}; expected one of "
        f"{HASH_FUNCTIONS}"
    )


class PlacementMap:
    """Consistent-hash ring mapping placement keys to replica addresses.

    Args:
        replicas: initial replica addresses (ownership order does not
            matter; the ring is derived from hashes).
        hash_name: one of :data:`HASH_FUNCTIONS`.
        virtual_nodes: ring points per replica.  More points smooth the
            per-replica share of the key space at the cost of a larger
            ring; 64 keeps the max/min share within ~2x for small
            replica counts.
    """

    def __init__(
        self,
        replicas: Sequence[str],
        hash_name: str = "crc32",
        virtual_nodes: int = 64,
    ) -> None:
        if not replicas:
            raise ValueError("placement map needs at least one replica")
        if len(set(replicas)) != len(replicas):
            raise ValueError(f"duplicate replica addresses: {list(replicas)}")
        if hash_name not in HASH_FUNCTIONS:
            raise ValueError(
                f"unknown placement hash {hash_name!r}; expected one of "
                f"{HASH_FUNCTIONS}"
            )
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.hash_name = hash_name
        self.virtual_nodes = virtual_nodes
        #: Ring changes so far; replicas compare epochs to detect stale
        #: client routing views (the misroute/reforward window).
        self.epoch = 0
        self._replicas: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for address in replicas:
            self._insert(address)

    # -- ring maintenance ---------------------------------------------------------

    def _vnode_hashes(self, address: str) -> list[int]:
        return [
            stable_hash(f"{address}#{index}", self.hash_name)
            for index in range(self.virtual_nodes)
        ]

    def _insert(self, address: str) -> None:
        self._replicas.append(address)
        for point in self._vnode_hashes(address):
            slot = bisect.bisect(self._points, point)
            # Ties broken by address so ring layout is order-independent.
            while (
                slot < len(self._points)
                and self._points[slot] == point
                and self._owners[slot] < address
            ):
                slot += 1
            self._points.insert(slot, point)
            self._owners.insert(slot, address)

    def add_replica(self, address: str) -> None:
        """Join one replica; bumps the epoch.  ~1/N of keys move to it."""
        if address in self._replicas:
            raise ValueError(f"replica {address!r} already placed")
        self._insert(address)
        self.epoch += 1

    def remove_replica(self, address: str) -> None:
        """Leave one replica; bumps the epoch.  Its keys move to peers."""
        if address not in self._replicas:
            raise ValueError(f"replica {address!r} not placed")
        if len(self._replicas) == 1:
            raise ValueError("cannot remove the last replica")
        self._replicas.remove(address)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners, strict=True)
            if owner != address
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]
        self.epoch += 1

    def copy(self) -> "PlacementMap":
        """Independent snapshot (a client's possibly-stale routing view)."""
        snapshot = PlacementMap(
            list(self._replicas),
            hash_name=self.hash_name,
            virtual_nodes=self.virtual_nodes,
        )
        snapshot.epoch = self.epoch
        return snapshot

    def sync_from(self, other: "PlacementMap") -> None:
        """Adopt ``other``'s ring and epoch (routing-view catch-up)."""
        self._replicas = list(other._replicas)
        self._points = list(other._points)
        self._owners = list(other._owners)
        self.hash_name = other.hash_name
        self.virtual_nodes = other.virtual_nodes
        self.epoch = other.epoch

    # -- lookups ------------------------------------------------------------------

    @property
    def replicas(self) -> list[str]:
        return list(self._replicas)

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, address: str) -> bool:
        return address in self._replicas

    def owner(self, key: str) -> str:
        """The replica owning ``key`` under the current ring."""
        point = stable_hash(key, self.hash_name)
        slot = bisect.bisect(self._points, point)
        if slot == len(self._points):
            slot = 0
        return self._owners[slot]

    def preference(self, key: str) -> list[str]:
        """Every replica in failover order for ``key``: owner first,
        then distinct successors walking the ring."""
        if len(self._replicas) == 1:
            return list(self._replicas)
        point = stable_hash(key, self.hash_name)
        start = bisect.bisect(self._points, point)
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                ordered.append(owner)
                if len(ordered) == len(self._replicas):
                    break
        return ordered

    def share_of(self, address: str, keys: Sequence[str]) -> float:
        """Fraction of ``keys`` owned by ``address`` (balance probes)."""
        if not keys:
            return 0.0
        owned = sum(1 for key in keys if self.owner(key) == address)
        return owned / len(keys)

    def __repr__(self) -> str:
        return (
            f"PlacementMap(replicas={len(self._replicas)}, "
            f"epoch={self.epoch}, hash={self.hash_name})"
        )


@dataclass
class PlacementSpec:
    """The placement contract of one sharded PDP tier.

    Carried by :class:`~repro.components.pdp.PdpConfig` (validated in
    its ``__post_init__``) and by the ``hash-subject`` /
    ``hash-resource`` routing policies, so replicas and routers agree on
    ownership by construction.  ``ring`` is shared and mutable —
    rebalances go through :meth:`PlacementMap.add_replica` /
    :meth:`~PlacementMap.remove_replica` on the authoritative spec, and
    stale client views catch up via :meth:`PlacementMap.sync_from`.

    Attributes:
        shard_by: which request attribute keys the placement —
            ``"subject"`` partitions subject-attribute state,
            ``"resource"`` partitions the policy store.
        ring: the consistent-hash ring over replica addresses.
    """

    shard_by: str
    ring: PlacementMap

    def __post_init__(self) -> None:
        if self.shard_by not in SHARD_KEYS:
            raise ValueError(
                f"shard_by must be one of {SHARD_KEYS}, got {self.shard_by!r}"
            )
        if not isinstance(self.ring, PlacementMap):
            raise ValueError(
                f"placement ring must be a PlacementMap, got "
                f"{type(self.ring).__name__}"
            )

    def key_of(self, request) -> str:
        """The placement key of one request context ('' when absent)."""
        if self.shard_by == "subject":
            return request.subject_id or ""
        return request.resource_id or ""

    def owner_of(self, request) -> str:
        return self.ring.owner(self.key_of(request))

    def preference_for(self, request) -> list[str]:
        return self.ring.preference(self.key_of(request))

    def routing_view(self) -> "PlacementSpec":
        """A snapshot spec whose ring updates independently — models a
        client whose placement view lags the authoritative ring."""
        return PlacementSpec(shard_by=self.shard_by, ring=self.ring.copy())


#: Authoritative attribute source backing a partition: subject/resource
#: id -> {attribute_id: [values]}.  Deterministic resolvers (the
#: population generator) make "repopulate after rebalance" exact.
AttributeResolver = Callable[[str], dict[str, list[AttributeValue]]]


@dataclass
class PartitionStats:
    """Counters one partition keeps about its own state churn."""

    lookups: int = 0
    hits: int = 0
    faults: int = 0
    misses: int = 0
    #: Lookups for keys outside the owned range (misrouted traffic).
    unowned_lookups: int = 0
    #: Entries dropped because a rebalance moved their range away.
    evicted: int = 0
    rebalances: int = 0


class AttributePartition:
    """One replica's owned slice of per-subject (or per-resource)
    attribute state, materialised lazily from an authoritative resolver.

    The partition is the replica-side state model of E19: lookups for
    owned keys fault the entry in once and retain it; lookups for keys
    the replica does not own are still answered (the resolver is
    authoritative, so decisions stay correct on misrouted traffic) but
    the entry is *not* retained — misroutes must not pollute the
    partition's cardinality.  A ring change (:meth:`rebalance`) evicts
    every retained entry outside the new owned range and returns how
    many moved, the per-replica cost E19's join/leave sweep reports.

    Args:
        owner: this replica's address in the ring.
        spec: the authoritative placement spec (shared object).
        resolver: authoritative attribute source; ``None`` makes the
            partition a purely preloaded store.
    """

    def __init__(
        self,
        owner: str,
        spec: PlacementSpec,
        resolver: Optional[AttributeResolver] = None,
    ) -> None:
        self.owner = owner
        self.spec = spec
        self.resolver = resolver
        self._entries: dict[str, dict[str, list[AttributeValue]]] = {}
        self.stats = PartitionStats()

    # -- ownership ----------------------------------------------------------------

    def owns(self, key: str) -> bool:
        return self.spec.ring.owner(key) == self.owner

    @property
    def cardinality(self) -> int:
        """Distinct keys this partition currently materialises."""
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)

    # -- population ---------------------------------------------------------------

    def preload(
        self, key: str, attributes: dict[str, list[AttributeValue]]
    ) -> bool:
        """Install state for an owned key (migration receive path).

        Returns False (and stores nothing) for keys outside the owned
        range, so a bulk loader can stream the whole population at every
        replica and each retains only its share.
        """
        if not self.owns(key):
            return False
        self._entries[key] = {
            attribute_id: list(values)
            for attribute_id, values in attributes.items()
        }
        return True

    def _materialise(self, key: str) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        if self.resolver is None:
            return None
        attributes = self.resolver(key)
        if attributes is None:
            return None
        self.stats.faults += 1
        entry = {
            attribute_id: list(values)
            for attribute_id, values in attributes.items()
        }
        self._entries[key] = entry
        return entry

    def lookup(
        self, key: str, attribute_id: str, data_type: DataType
    ) -> list[AttributeValue]:
        """Values of one attribute of ``key``, faulting owned state in.

        Unowned keys are answered straight from the resolver without
        retention and counted as ``unowned_lookups`` — the partition's
        view of misrouted traffic.
        """
        self.stats.lookups += 1
        if not self.owns(key):
            self.stats.unowned_lookups += 1
            attributes = self.resolver(key) if self.resolver else None
            values = (attributes or {}).get(attribute_id, [])
            return [v for v in values if v.data_type is data_type]
        entry = self._materialise(key)
        if entry is None:
            self.stats.misses += 1
            return []
        values = entry.get(attribute_id, [])
        return [v for v in values if v.data_type is data_type]

    # -- rebalance ----------------------------------------------------------------

    def rebalance(self) -> int:
        """Drop every entry outside the (possibly changed) owned range.

        Called after the authoritative ring gained or lost a replica.
        Returns the number of entries evicted — the keys that *moved*
        off this replica; the new owner repopulates them on demand from
        the shared resolver (or receives them via :meth:`preload`).
        """
        moved = [key for key in self._entries if not self.owns(key)]
        for key in moved:
            del self._entries[key]
        self.stats.evicted += len(moved)
        self.stats.rebalances += 1
        return len(moved)

    def export_entries(
        self, keys: Optional[Sequence[str]] = None
    ) -> dict[str, dict[str, list[AttributeValue]]]:
        """Copy out entries (migration send path); all entries when
        ``keys`` is None."""
        chosen = self._entries if keys is None else {
            key: self._entries[key] for key in keys if key in self._entries
        }
        return {
            key: {aid: list(values) for aid, values in entry.items()}
            for key, entry in chosen.items()
        }

    def __repr__(self) -> str:
        return (
            f"AttributePartition(owner={self.owner!r}, "
            f"cardinality={self.cardinality}, "
            f"epoch={self.spec.ring.epoch})"
        )
