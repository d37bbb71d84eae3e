"""Tests for the TTL cache used by PEPs (decisions) and PDPs (policies)."""

import pytest

from repro.components import TtlCache
from repro.components.cache import CACHE_CAPACITY
from repro.simnet import SimClock


@pytest.fixture
def clock():
    return SimClock()


def make_cache(clock, ttl=10.0):
    return TtlCache(ttl=ttl, clock=lambda: clock.now)


class TestTtlCache:
    def test_hit_after_put(self, clock):
        cache = make_cache(clock)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1

    def test_miss_on_absent(self, clock):
        cache = make_cache(clock)
        assert cache.get("k") is None
        assert cache.stats.misses == 1

    def test_expiry(self, clock):
        cache = make_cache(clock, ttl=5.0)
        cache.put("k", "v")
        clock.advance_to(4.9)
        assert cache.get("k") == "v"
        clock.advance_to(5.0)
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_zero_ttl_disables_cache(self, clock):
        cache = make_cache(clock, ttl=0.0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert not cache.enabled

    def test_negative_ttl_rejected(self, clock):
        with pytest.raises(ValueError):
            make_cache(clock, ttl=-1.0)

    def test_lru_eviction(self, clock):
        cache = make_cache(clock)
        for key in range(CACHE_CAPACITY):
            cache.put(key, key)
        cache.get(0)  # refresh 0
        cache.put("new", "new")  # evicts 1 (least recently used)
        assert len(cache) == CACHE_CAPACITY
        assert cache.get(1) is None
        assert cache.get(0) == 0
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_evict(self, clock):
        cache = make_cache(clock)
        for key in range(CACHE_CAPACITY - 1):
            cache.put(key, key)
        cache.put(0, "again")
        cache.put("last", "last")
        assert cache.get(0) == "again"
        assert cache.stats.evictions == 0

    def test_invalidate(self, clock):
        cache = make_cache(clock)
        cache.put("k", "v")
        assert cache.invalidate("k") is True
        assert cache.get("k") is None
        assert cache.invalidate("k") is False

    def test_invalidate_where(self, clock):
        cache = make_cache(clock)
        for index in range(5):
            cache.put(("res", index), index)
        removed = cache.invalidate_where(lambda key: key[1] % 2 == 0)
        assert removed == 3
        assert cache.get(("res", 1)) == 1
        assert cache.get(("res", 2)) is None

    def test_clear(self, clock):
        cache = make_cache(clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_clear_counts_only_live_entries(self, clock):
        """Entries the clock already killed are expirations, not
        invalidations — counting them both would double-book E5/E6/E15
        staleness stats."""
        cache = make_cache(clock, ttl=5.0)
        cache.put("dead", 1)
        clock.advance_to(6.0)
        cache.put("live", 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.stats.expirations == 1

    def test_purge_expired(self, clock):
        cache = make_cache(clock, ttl=5.0)
        cache.put("dead-1", 1)
        cache.put("dead-2", 2)
        clock.advance_to(6.0)
        cache.put("live", 3)
        assert cache.purge_expired() == 2
        assert len(cache) == 1
        assert cache.stats.expirations == 2
        assert cache.get("live") == 3

    def test_invalidate_where_counts_only_live_entries(self, clock):
        """Matching-but-expired victims are expirations, not coherence
        work — same discipline as clear()."""
        cache = make_cache(clock, ttl=5.0)
        cache.put(("res", 0), "dead")
        clock.advance_to(6.0)
        cache.put(("res", 1), "live")
        cache.put(("other", 2), "live")
        removed = cache.invalidate_where(lambda key: key[0] == "res")
        assert removed == 1
        assert cache.stats.invalidations == 1
        assert cache.stats.expirations == 1
        assert cache.get(("other", 2)) == "live"

    def test_purge_expired_noop_when_fresh(self, clock):
        cache = make_cache(clock, ttl=5.0)
        cache.put("a", 1)
        assert cache.purge_expired() == 0
        assert len(cache) == 1

    def test_hit_ratio(self, clock):
        cache = make_cache(clock)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_refreshed_entry_gets_new_ttl(self, clock):
        cache = make_cache(clock, ttl=5.0)
        cache.put("k", "v1")
        clock.advance_to(4.0)
        cache.put("k", "v2")
        clock.advance_to(8.0)
        assert cache.get("k") == "v2"
