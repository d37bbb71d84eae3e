"""The decision-cache contract, once, for both tiers that hold one.

:class:`~repro.components.cache.DecisionCache` is the PEP's
``decision_cache`` and the federated gateway's ``remote_cache``.  Its
one coherence rule — *an invalidation beats every statement issued at
or before it* — is held here by a hypothesis state machine, next to the
TTL and capacity bounds ``test_cache_properties.py`` holds for the base
class, with the fence bookkeeping the gateway used to keep privately
(``FederatedGateway._fenced`` and its three tables, as of the parent of
ISSUE 20) as the differential oracle for :meth:`DecisionCache.admit`'s
verdict.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.components import DecisionCache
from repro.saml import XacmlAuthzDecisionStatement
from repro.simnet import SimClock
from repro.xacml import (
    Attribute,
    Category,
    Decision,
    RequestContext,
    ResponseContext,
    SUBJECT_ID,
    cache_key_touches,
    string,
)
from repro.xacml.attributes import any_uri

TTL = 4.0
CAPACITY = 4

SUBJECTS = ["s0", "s1", "s2"]
RESOURCES = ["r0", "r1", "r2"]
REQUESTS = [
    RequestContext.simple(subject, resource, "read")
    for subject in SUBJECTS
    for resource in RESOURCES
]

subjects = st.sampled_from(SUBJECTS)
resources = st.sampled_from(RESOURCES)
requests = st.sampled_from(REQUESTS)
spans = st.sampled_from([0.0, 0.25, 1.0, 3.0])


def statement(issued_at: float) -> XacmlAuthzDecisionStatement:
    return XacmlAuthzDecisionStatement(
        response=ResponseContext.single(Decision.PERMIT),
        in_response_to="query",
        issuer="pdp",
        issue_instant=issued_at,
    )


class ParentFences:
    """The gateway's private fence tables at the parent commit, verbatim
    but for ``self.now``: the oracle for what ``admit`` must refuse."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._remote_fence = 0.0
        self._subject_fences: dict[str, float] = {}
        self._resource_fences: dict[str, float] = {}

    def fenced(self, request: RequestContext, issued_at: float) -> bool:
        fence = self._remote_fence
        subject = request.subject_id
        if subject is not None:
            fence = max(fence, self._subject_fences.get(subject, 0.0))
        resource = request.resource_id
        if resource is not None:
            fence = max(fence, self._resource_fences.get(resource, 0.0))
        return fence > 0.0 and issued_at <= fence

    def invalidate_all(self) -> None:
        self._remote_fence = self._clock()

    def invalidate_for(self, subject_id=None, resource_id=None) -> None:
        if subject_id is not None:
            self._subject_fences[subject_id] = self._clock()
        if resource_id is not None:
            self._resource_fences[resource_id] = self._clock()


class DecisionCacheMachine(RuleBasedStateMachine):
    """admit / invalidate_for / invalidate_all / advance / get."""

    def __init__(self) -> None:
        super().__init__()
        # The parent read a fence of 0.0 as "no fence yet"; the machine
        # starts after that instant so oracle and cache can be compared.
        self.clock = SimClock(start=1.0)
        self.cache = DecisionCache(
            ttl=TTL, clock=lambda: self.clock.now, capacity=CAPACITY
        )
        self.oracle = ParentFences(lambda: self.clock.now)
        #: (instant, subject filter, resource filter); both None = all.
        self.invalidations: list[tuple[float, object, object]] = []
        self.admitted_at: dict[tuple, float] = {}
        self.refused = 0

    @rule(request=requests, age=spans)
    def admit(self, request, age):
        issued_at = max(self.clock.now - age, 0.0)
        key = request.cache_key()
        admitted = self.cache.admit(key, statement(issued_at))
        assert admitted == (not self.oracle.fenced(request, issued_at))
        if admitted:
            self.admitted_at[key] = self.clock.now
        else:
            self.refused += 1

    @rule(subject=subjects)
    def invalidate_subject(self, subject):
        self.invalidate(subject, None)

    @rule(resource=resources)
    def invalidate_resource(self, resource):
        self.invalidate(None, resource)

    @rule(subject=subjects, resource=resources)
    def invalidate_both(self, subject, resource):
        self.invalidate(subject, resource)

    def invalidate(self, subject, resource):
        held = len(self.cache)
        dropped = self.cache.invalidate_for(
            subject_id=subject, resource_id=resource
        )
        assert 0 <= dropped <= held
        self.oracle.invalidate_for(subject_id=subject, resource_id=resource)
        self.invalidations.append((self.clock.now, subject, resource))

    @rule()
    def invalidate_all(self):
        self.cache.invalidate_all()
        assert len(self.cache) == 0
        self.oracle.invalidate_all()
        self.invalidations.append((self.clock.now, None, None))

    @rule(span=spans)
    def advance(self, span):
        self.clock.advance_by(span)

    @rule(request=requests)
    def get(self, request):
        key = request.cache_key()
        served = self.cache.get(key)
        if served is None:
            return
        assert self.clock.now - self.admitted_at[key] < TTL
        for at, subject, resource in self.invalidations:
            matched = (subject is None and resource is None) or (
                cache_key_touches(key, subject_id=subject, resource_id=resource)
            )
            assert not (matched and served.issue_instant <= at), (
                f"served a statement issued at {served.issue_instant} past "
                f"the invalidation of {(subject, resource)} at {at}"
            )

    @invariant()
    def bounded_and_counted(self):
        assert len(self.cache) <= CAPACITY
        assert self.cache.fenced == self.refused


TestDecisionCacheMachine = DecisionCacheMachine.TestCase
TestDecisionCacheMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


def cache_at(clock: SimClock, ttl: float = TTL) -> DecisionCache:
    return DecisionCache(ttl=ttl, clock=lambda: clock.now)


class TestTheRule:
    def test_at_the_invalidation_is_refused_and_after_it_is_admitted(self):
        clock = SimClock(start=5.0)
        cache = cache_at(clock)
        key = REQUESTS[0].cache_key()
        cache.invalidate_for(subject_id="s0")
        assert not cache.admit(key, statement(4.0))
        assert not cache.admit(key, statement(5.0))
        assert cache.get(key) is None
        assert cache.admit(key, statement(5.000001))
        assert cache.get(key) is not None
        assert cache.fenced == 2

    def test_an_invalidation_at_time_zero_counts(self):
        clock = SimClock()
        cache = cache_at(clock)
        cache.invalidate_all()
        assert not cache.admit(REQUESTS[0].cache_key(), statement(0.0))

    def test_a_fence_touches_what_the_invalidation_touches(self):
        """Every typed variant and every value of a multi-valued id, as
        ``cache_key_touches`` reads a key: what is dropped is fenced."""
        clock = SimClock(start=5.0)
        cache = cache_at(clock)
        typed = RequestContext.simple("other", "r0", "read")
        typed.add(Category.SUBJECT, Attribute.of(SUBJECT_ID, any_uri("s0")))
        second = RequestContext()
        second.add(
            Category.SUBJECT, Attribute(SUBJECT_ID, (string("other"), string("s0")))
        )
        bystander = RequestContext.simple("other", "r0", "read")
        for request in (typed, second, bystander):
            assert cache.admit(request.cache_key(), statement(4.0))
        assert cache.invalidate_for(subject_id="s0") == 2
        assert not cache.admit(typed.cache_key(), statement(4.5))
        assert not cache.admit(second.cache_key(), statement(4.5))
        assert cache.admit(bystander.cache_key(), statement(4.5))

    def test_no_filter_drops_and_fences_nothing(self):
        clock = SimClock(start=5.0)
        cache = cache_at(clock)
        key = REQUESTS[0].cache_key()
        assert cache.admit(key, statement(4.0))
        assert cache.invalidate_for() == 0
        assert cache.admit(key, statement(4.0))

    def test_a_disabled_cache_admits_nothing_and_fences_nothing(self):
        clock = SimClock(start=5.0)
        cache = cache_at(clock, ttl=0.0)
        cache.invalidate_all()
        assert not cache.admit(REQUESTS[0].cache_key(), statement(1.0))
        assert cache.fenced == 0
        assert len(cache) == 0

    def test_snapshot_purges_before_it_counts(self):
        clock = SimClock(start=5.0)
        cache = cache_at(clock)
        cache.admit(REQUESTS[0].cache_key(), statement(5.0))
        cache.admit(REQUESTS[1].cache_key(), statement(5.0))
        assert cache.snapshot()["entries"] == 2
        clock.advance_by(TTL)
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 0
        assert snapshot["expirations"] == 2
