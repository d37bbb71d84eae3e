"""Property-based tests for the TTL cache (E6's foundation).

Invariants:

* an entry is never served at or past its TTL (the bounded-staleness
  guarantee the paper's mitigation relies on);
* capacity is never exceeded;
* a disabled cache (ttl=0) never serves anything.
"""

from hypothesis import given, settings, strategies as st

from repro.components import TtlCache
from repro.components.cache import CACHE_CAPACITY
from repro.simnet import SimClock


@st.composite
def cache_scripts(draw):
    """A time-ordered script of put/get/advance operations."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(["put", "get", "advance", "invalidate"]))
        key = draw(st.integers(min_value=0, max_value=5))
        if kind == "advance":
            ops.append(("advance", draw(st.floats(min_value=0.1, max_value=5.0))))
        else:
            ops.append((kind, key))
    return ops


class TestCacheProperties:
    @given(cache_scripts(), st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=80)
    def test_never_serves_past_ttl(self, script, ttl):
        clock = SimClock()
        cache = TtlCache(ttl=ttl, clock=lambda: clock.now)
        stored_at: dict[int, float] = {}
        for op in script:
            if op[0] == "advance":
                clock.advance_to(clock.now + op[1])
            elif op[0] == "put":
                cache.put(op[1], f"value-{op[1]}")
                stored_at[op[1]] = clock.now
            elif op[0] == "invalidate":
                cache.invalidate(op[1])
                stored_at.pop(op[1], None)
            else:
                value = cache.get(op[1])
                if value is not None:
                    age = clock.now - stored_at[op[1]]
                    assert age < ttl, (op[1], age, ttl)

    @given(cache_scripts())
    @settings(max_examples=40)
    def test_capacity_never_exceeded(self, script):
        clock = SimClock()
        cache = TtlCache(ttl=100.0, clock=lambda: clock.now)
        # Three slots short of full, as the script's puts need to evict.
        for key in range(CACHE_CAPACITY - 3):
            cache.put(("filler", key), "v")
        for op in script:
            if op[0] == "advance":
                clock.advance_to(clock.now + op[1])
            elif op[0] == "put":
                cache.put(op[1], "v")
            elif op[0] == "invalidate":
                cache.invalidate(op[1])
            else:
                cache.get(op[1])
            assert len(cache) <= CACHE_CAPACITY

    @given(cache_scripts())
    @settings(max_examples=20)
    def test_disabled_cache_never_hits(self, script):
        clock = SimClock()
        cache = TtlCache(ttl=0.0, clock=lambda: clock.now)
        for op in script:
            if op[0] == "advance":
                clock.advance_to(clock.now + op[1])
            elif op[0] == "put":
                cache.put(op[1], "v")
            else:
                assert cache.get(op[1]) is None
        assert cache.stats.hits == 0
