"""TTL caches for decisions and policies.

The paper's communication-performance analysis (Section 3.2) proposes
caching at two places: "Enforcement points may cache decisions made by
decision points.  Additionally, decision points may cache policies that
they would normally retrieve from administration points."  It also names
the cost: stale entries "may result in false positive or false negative
access control decisions", mitigated by time constraints on validity.

:class:`TtlCache` implements exactly that: time-bounded entries on the
*simulated* clock, LRU capacity eviction, explicit invalidation, and
counters that experiments E5/E6 read (hits, misses, expirations,
stale-serve opportunities).

:class:`DecisionCache` is the one cache of *decisions* — the PEP's
``decision_cache`` and the federated gateway's ``remote_cache`` — and
the one place their coherence lives: a revocation or policy change cuts
the TTL short, for what is cached *and* for what is still on its way.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Optional, TypeVar

from ..saml.xacml_profile import XacmlAuthzDecisionStatement
from ..xacml.attributes import RESOURCE_ID, SUBJECT_ID, Category
from ..xacml.context import KeyPart, cache_key_touches

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_ratio": round(self.hit_ratio, 4),
        }


@dataclass
class _Entry(Generic[V]):
    value: V
    stored_at: float
    expires_at: float


class TtlCache(Generic[K, V]):
    """A TTL + LRU cache driven by an external clock function.

    Args:
        ttl: entry lifetime in simulated seconds; 0 disables caching
            entirely (every ``get`` is a miss), which experiments use as
            the no-cache baseline.
        capacity: maximum entries before LRU eviction.
        clock: callable returning the current simulated time.
    """

    def __init__(
        self,
        ttl: float,
        clock: Callable[[], float],
        capacity: int = 10_000,
    ) -> None:
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.ttl = ttl
        self.capacity = capacity
        self._clock = clock
        self._entries: OrderedDict[K, _Entry[V]] = OrderedDict()
        self.stats = CacheStats()

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> Optional[V]:
        """Return the cached value, or None on miss/expiry."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self._clock() >= entry.expires_at:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def put(self, key: K, value: V) -> None:
        if not self.enabled:
            return
        now = self._clock()
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = _Entry(
            value=value, stored_at=now, expires_at=now + self.ttl
        )

    def invalidate(self, key: K) -> bool:
        """Remove one entry; returns True if it was present."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_where(self, predicate: Callable[[K], bool]) -> int:
        """Remove all entries whose key satisfies ``predicate``.

        Returns (and counts as invalidations) only *live* victims —
        matching entries the clock already killed are expirations, the
        same bookkeeping discipline as :meth:`clear`.
        """
        now = self._clock()
        removed = 0
        for key in [key for key in self._entries if predicate(key)]:
            entry = self._entries.pop(key)
            if now >= entry.expires_at:
                self.stats.expirations += 1
            else:
                self.stats.invalidations += 1
                removed += 1
        return removed

    def purge_expired(self) -> int:
        """Drop entries past their TTL; returns how many were dropped.

        Expired-but-unevicted entries otherwise linger until their next
        ``get`` and would be miscounted by bulk operations (a cleared
        cache is not "invalidating" entries the clock already killed).
        Callers snapshotting hit ratios purge first so ``len(cache)``
        reflects only servable entries.
        """
        now = self._clock()
        victims = [
            key
            for key, entry in self._entries.items()
            if now >= entry.expires_at
        ]
        for key in victims:
            del self._entries[key]
        self.stats.expirations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop everything; only *live* entries count as invalidations."""
        self.purge_expired()
        self.stats.invalidations += len(self._entries)
        self._entries.clear()

    def age_of(self, key: K) -> Optional[float]:
        """Age in seconds of a (non-expired) entry, for staleness studies."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return self._clock() - entry.stored_at


#: The key-part prefix (category, attribute id; then the lexical value)
#: ``cache_key_touches`` compares for a subject / resource id.
_SUBJECT_PART = (Category.SUBJECT.value, SUBJECT_ID)
_RESOURCE_PART = (Category.RESOURCE.value, RESOURCE_ID)
_NO_FENCE = float("-inf")


class DecisionCache(TtlCache[tuple[KeyPart, ...], XacmlAuthzDecisionStatement]):
    """Decision statements by request identity, under one coherence rule:
    **an invalidation beats every statement issued at or before it.**

    :meth:`invalidate_for` / :meth:`invalidate_all` drop what is held
    *and* leave a fence — the instant, per subject / resource id or
    cache-wide; :meth:`admit` is a ``put`` that refuses a statement not
    issued later than a fence its key touches.  Without it the answer
    to a query sent just before a revocation, still on the wire or
    queued at the PDP, refills the cache the revocation cleaned and is
    served for a whole TTL (the PEP tier did, until it shared this
    class with the gateway tier).

    Sound because issue instants and fences read one simulated clock: a
    statement issued after the fence was decided after the invalidation
    reached this cache (how soon the PDP itself saw the change is its
    policy cache's window, not this one's).  "At" is refused too — the
    order within one instant is not known.  A fence only ever *refuses
    an admission*: it serves nothing and changes no decision — the
    refused statement still goes to the waiter that asked for it (the
    window the coherence strategy declares), the next request misses
    and asks again.  Keys match as :func:`~repro.xacml.context.
    cache_key_touches` matches them — every typed or issued variant,
    every value of a multi-valued id — so what an invalidation fences
    is what it drops: more than it must, never less.

    Cost: nothing until the first selective invalidation, then one dict
    probe per key part per admission; one table entry per distinct
    revoked subject / resource id, never pruned (that needs a bound on
    delivery time the cache does not have).
    """

    def __init__(
        self, ttl: float, clock: Callable[[], float], capacity: int = 10_000
    ) -> None:
        super().__init__(ttl, clock, capacity)
        self._fence = _NO_FENCE  # cache-wide
        #: ``(category, attribute id, lexical)`` of a revoked subject /
        #: resource id -> when it was last invalidated.
        self._fences: dict[tuple[str, str, str], float] = {}
        self.fenced = 0  # admissions refused

    def admit(
        self, key: tuple[KeyPart, ...], statement: XacmlAuthzDecisionStatement
    ) -> bool:
        """``put`` unless an invalidation beats the statement."""
        if not self.enabled:
            return False
        fence, fences = self._fence, self._fences
        if fences:
            for part in key:
                at = fences.get(part[:3])
                if at is not None and at > fence:
                    fence = at
        if statement.issue_instant <= fence:
            self.fenced += 1
            return False
        self.put(key, statement)
        return True

    def invalidate_for(
        self,
        subject_id: Optional[str] = None,
        resource_id: Optional[str] = None,
    ) -> int:
        """Drop, and fence, the decisions touching a subject and / or resource.

        The selective coherence a revocation needs: revoking one
        subject's rights must not cost every other cached decision
        (paper §3.2 pits caching against revocation flexibility).
        Entries matching *either* filter go; with neither, nothing does
        (that is :meth:`invalidate_all`).  Returns the live entries
        dropped.
        """
        if subject_id is None and resource_id is None:
            return 0
        now = self._clock()
        if subject_id is not None:
            self._fences[(*_SUBJECT_PART, subject_id)] = now
        if resource_id is not None:
            self._fences[(*_RESOURCE_PART, resource_id)] = now
        return self.invalidate_where(
            lambda key: cache_key_touches(
                key, subject_id=subject_id, resource_id=resource_id
            )
        )

    def invalidate_all(self) -> None:
        """Drop every decision (a change no selective key can name)."""
        self._fence = self._clock()
        self.clear()

    def snapshot(self) -> dict[str, float]:
        """Hit/miss snapshot with expired entries purged first."""
        self.purge_expired()
        return {**self.stats.snapshot(), "entries": len(self)}
