"""A PEP has two entry points and one transport, and they enforce alike.

``authorize`` is the paper's pull model: one single query per access
(§3.2), sent at once, with the caller waiting until it settles.
``submit`` is the fabric: the same enforcement, coalesced into batch
queries.  Both put their envelopes on the PEP's one wire core — one
in-flight map, one timeout failover, one reply check — and both land in
one completion.  Every outcome enforcement can reach — a PDP decision
of each kind, an obligation fulfilled, not understood or failed, a
revocation guard denial, a decision-cache hit or miss, a PDP that cannot
be reached or refuses, a replica failover — is one cell here, decided
through each entry point, with the same result and the same counters.
The cells after the table pin what the shared transport makes equal
(the failover tally) and what ``authorize``'s wait promises.
"""

import inspect
import math
from typing import Callable, NamedTuple, Optional

import pytest

from repro.components import (
    DecisionDispatcher,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    PolicyInformationPoint,
)
from repro.simnet import Network
from repro.xacml import (
    Category,
    Decision,
    Obligation,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)

LOG = "urn:test:log"
QUOTA = "urn:test:quota"


def policy(resource_id, rules, obligations=()):
    return Policy(
        policy_id=f"policy-{resource_id}",
        rules=rules,
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=resource_id),
        obligations=obligations,
    )


POLICIES = (
    policy(
        "doc",
        (
            permit_rule(
                "engineers",
                condition=attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string("engineer")
                ),
            ),
            deny_rule("default-deny"),
        ),
    ),
    policy("logged", (permit_rule("r"),), (Obligation(LOG, Decision.PERMIT),)),
    policy(
        "exotic",
        (permit_rule("r"),),
        (Obligation("urn:test:exotic", Decision.PERMIT),),
    ),
    policy("quota", (permit_rule("r"),), (Obligation(QUOTA, Decision.PERMIT),)),
    policy("audited", (deny_rule("r"),), (Obligation(LOG, Decision.DENY),)),
)


class World(NamedTuple):
    network: Network
    pep: PolicyEnforcementPoint
    pdps: dict
    log: list


def build(pdps=("pdp",), pdp_config=None, **pep_config) -> World:
    network = Network(seed=11)
    pap = PolicyAdministrationPoint("pap", network)
    for each in POLICIES:
        pap.publish(each)
    pip = PolicyInformationPoint("pip", network)
    pip.store.set_subject_attribute("alice", SUBJECT_ROLE, [string("engineer")])
    replicas = {
        name: PolicyDecisionPoint(
            name,
            network,
            pap_address="pap",
            pip_addresses=["pip"],
            config=pdp_config,
        )
        for name in pdps
    }
    pep = PolicyEnforcementPoint(
        "pep",
        network,
        pdp_address=pdps[0] if pdps else None,
        config=PepConfig(**pep_config),
    )
    if len(pdps) > 1:
        pep.dispatcher = DecisionDispatcher(list(pdps))
    log = []
    pep.register_obligation_handler(
        LOG, lambda obligation, request: log.append(request.subject_id) or True
    )
    pep.register_obligation_handler(QUOTA, lambda obligation, request: False)
    return World(network, pep, replicas, log)


def by_authorize(pep, request):
    return pep.authorize(request)


def by_submit(pep, request):
    if pep.coalescer is None:
        pep.enable_batching(max_batch=16, max_delay=0.001)
    results = []
    inline = pep.submit(request, results.append)
    pep.network.run(until=pep.network.now + 10.0)
    assert len(results) == 1, "the waiter is answered exactly once"
    # Only the guard and the cache answer before the queue is involved.
    assert inline == (results[0].source in ("cache", "revocation"))
    return results[0]


PATHS = {"authorize": by_authorize, "submit": by_submit}


def revoke_alice(world):
    world.pep.revocation_guard = lambda request, then: then(
        "alice revoked" if request.subject_id == "alice" else None
    )


def later(seconds):
    def advance(world):
        world.network.run(until=world.network.now + seconds)

    return advance


class Case(NamedTuple):
    resource: str
    decision: Decision
    source: str
    #: A substring of the result's detail.
    detail: str = ""
    subject: str = "alice"
    #: Obligation handler calls the decision makes.
    logged: int = 0
    #: Arguments of :func:`build`.
    world: dict = {}
    #: Run on the world before anything is decided.
    setup: Optional[Callable] = None
    #: Decide the same request once first, then run ``between``.
    warm: bool = False
    between: Optional[Callable] = None


def crash(name):
    return lambda world: world.pdps[name].crash()


CASES = {
    "permit": Case("doc", Decision.PERMIT, "pdp"),
    "deny": Case("doc", Decision.DENY, "pdp", subject="mallory"),
    "not-applicable": Case("orphan", Decision.NOT_APPLICABLE, "pdp"),
    "obligation-fulfilled": Case("logged", Decision.PERMIT, "pdp", logged=1),
    "obligation-not-understood": Case(
        "exotic", Decision.DENY, "obligation", "not understood"
    ),
    "obligation-failed": Case("quota", Decision.DENY, "obligation", "failed"),
    "deny-side-obligation-runs": Case("audited", Decision.DENY, "pdp", logged=1),
    "revoked-by-guard": Case(
        "doc", Decision.DENY, "revocation", "alice revoked", setup=revoke_alice
    ),
    "cached-permit": Case(
        "doc", Decision.PERMIT, "cache", world={"decision_cache_ttl": 60.0}, warm=True
    ),
    "cached-deny": Case(
        "doc",
        Decision.DENY,
        "cache",
        subject="mallory",
        world={"decision_cache_ttl": 60.0},
        warm=True,
    ),
    "cache-expired": Case(
        "doc",
        Decision.PERMIT,
        "pdp",
        world={"decision_cache_ttl": 1.0},
        warm=True,
        between=later(12.0),
    ),
    "cache-disabled": Case("doc", Decision.PERMIT, "pdp", warm=True),
    "guard-beats-a-cached-permit": Case(
        "doc",
        Decision.DENY,
        "revocation",
        "alice revoked",
        world={"decision_cache_ttl": 60.0},
        warm=True,
        between=revoke_alice,
    ),
    "pdp-crashed": Case(
        "doc", Decision.DENY, "fail-safe", "fail-safe deny", setup=crash("pdp")
    ),
    "pdp-partitioned": Case(
        "doc",
        Decision.DENY,
        "fail-safe",
        "fail-safe deny",
        setup=lambda world: world.network.partition("pep", "pdp"),
    ),
    "no-pdp": Case("doc", Decision.DENY, "fail-safe", "no PDP", world={"pdps": ()}),
    "pdp-refuses-a-plain-query": Case(
        "doc",
        Decision.DENY,
        "fail-safe",
        "only answers signed queries",
        world={"pdp_config": PdpConfig(require_signed_queries=True)},
    ),
    "replica-failover": Case(
        "doc",
        Decision.PERMIT,
        "pdp",
        world={"pdps": ("pdp-a", "pdp-b")},
        setup=crash("pdp-a"),
    ),
}

COUNTERS = (
    "enforcements",
    "grants",
    "denials",
    "fail_safe_denials",
    "obligation_failures",
    "revocation_denials",
)


def counters(pep):
    return {name: getattr(pep, name) for name in COUNTERS}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("case", list(CASES))
def test_each_outcome_is_enforced_alike_on_both_paths(case, path):
    spec, decide = CASES[case], PATHS[path]
    world = build(**spec.world)
    if spec.setup is not None:
        spec.setup(world)
    request = RequestContext.simple(spec.subject, spec.resource, "read")
    if spec.warm:
        decide(world.pep, request)
        world.log.clear()
        if spec.between is not None:
            spec.between(world)
    before = counters(world.pep)
    result = decide(world.pep, request)
    assert (result.decision, result.source) == (spec.decision, spec.source)
    assert spec.detail in result.detail
    assert len(world.log) == spec.logged
    granted = result.decision is Decision.PERMIT
    assert {name: value - before[name] for name, value in counters(world.pep).items()} == {
        "enforcements": 1,
        "grants": int(granted),
        "denials": int(not granted),
        "fail_safe_denials": int(spec.source == "fail-safe"),
        "obligation_failures": int(spec.source == "obligation"),
        "revocation_denials": int(spec.source == "revocation"),
    }


def test_the_pep_has_exactly_two_decision_entry_points():
    takes_a_request = {
        name
        for name, member in vars(PolicyEnforcementPoint).items()
        if callable(member)
        and not name.startswith("_")
        and "request" in inspect.signature(member).parameters
    }
    assert takes_a_request == {"authorize", "submit"}


def test_no_switch_makes_a_pep_fail_open():
    assert set(inspect.signature(PepConfig).parameters) == {
        "decision_cache_ttl",
        "secure_channel",
        "pdp_timeout",
    }


def test_a_pep_rejects_a_deadline_that_is_not_in_the_future():
    for timeout in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="pdp_timeout must be > 0"):
            PepConfig(pdp_timeout=timeout)


def test_every_replica_down_is_one_failover_on_both_paths():
    """Two replicas, both down: the first timeout fails over, the second
    has nobody left to ask and fails safe — one failover, however the
    request entered."""
    failovers = {}
    for path, decide in PATHS.items():
        world = build(pdps=("pdp-a", "pdp-b"))
        for pdp in world.pdps.values():
            pdp.crash()
        result = decide(world.pep, RequestContext.simple("alice", "doc", "read"))
        assert result.source == "fail-safe"
        failovers[path] = world.pep.dispatcher.failovers
    assert failovers == {"authorize": 1, "submit": 1}


def test_the_wait_ends_when_the_last_replica_times_out():
    world = build(pdps=("pdp-a", "pdp-b"), pdp_timeout=0.5)
    for pdp in world.pdps.values():
        pdp.crash()
    start = world.network.now
    result = world.pep.authorize(RequestContext.simple("alice", "doc", "read"))
    assert result.source == "fail-safe" and "no reply by" in result.detail
    assert world.network.now == start + 0.5 + 0.5
    assert math.isfinite(world.network.now)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_reply_after_its_failover_settles_nothing(path):
    """``pdp-a`` answers after the deadline: the query fails over to
    ``pdp-b``, whose answer settles it; ``pdp-a``'s reply then lands and
    is dropped."""
    world = build(pdps=("pdp-a", "pdp-b"), pdp_timeout=0.5)
    world.pdps["pdp-a"].config.envelope_overhead = 2.0
    result = PATHS[path](world.pep, RequestContext.simple("alice", "logged", "read"))
    assert (result.decision, result.source) == (Decision.PERMIT, "pdp")
    before = counters(world.pep)
    world.network.run(until=world.network.now + 10.0)
    assert [pdp.decisions_made for pdp in world.pdps.values()] == [1, 1]
    assert counters(world.pep) == before == {
        "enforcements": 1,
        "grants": 1,
        "denials": 0,
        "fail_safe_denials": 0,
        "obligation_failures": 0,
        "revocation_denials": 0,
    }
    assert world.log == ["alice"]  # the obligation ran once
    assert world.pep.dispatcher.failovers == 1
    assert not world.pep._wire._inflight


def test_a_pep_without_a_pdp_fails_safe_and_schedules_nothing():
    world = build(pdps=())
    loop, now = world.network.loop, world.network.now
    sent, pending = world.network.metrics.messages_sent, loop.pending
    result = world.pep.authorize(RequestContext.simple("alice", "doc", "read"))
    assert result.source == "fail-safe" and "no PDP" in result.detail
    assert (world.network.now, loop.pending) == (now, pending)
    assert world.network.metrics.messages_sent == sent


class TestWorkNothingReads:
    """``authorize`` skips what nothing on its path reads, and still
    sees every change that something does read."""

    def test_with_the_cache_off_no_cache_key_is_computed(self, monkeypatch):
        world = build()

        def refuse(request):
            raise AssertionError("authorize computed a cache key with no cache")

        monkeypatch.setattr(RequestContext, "cache_key", refuse)
        request = RequestContext.simple("alice", "doc", "read")
        for _ in range(2):
            result = world.pep.authorize(request)
            assert (result.decision, result.source) == (Decision.PERMIT, "pdp")
        assert world.pep.decision_cache.stats.misses == 2

    def test_with_the_cache_on_a_hit_still_answers_from_it(self, monkeypatch):
        world = build(decision_cache_ttl=60.0)
        keys = []
        cache_key = RequestContext.cache_key
        monkeypatch.setattr(
            RequestContext, "cache_key", lambda request: keys.append(1) or cache_key(request)
        )
        request = RequestContext.simple("alice", "doc", "read")
        assert world.pep.authorize(request).source == "pdp"
        assert world.pep.authorize(request).source == "cache"
        assert len(keys) == 2
        assert world.pdps["pdp"].decisions_made == 1

    def test_a_new_dispatcher_after_a_first_decision_takes_the_next(self):
        world = build(pdps=("pdp-a", "pdp-b"))
        request = RequestContext.simple("alice", "doc", "read")
        world.pep.dispatcher = DecisionDispatcher(["pdp-a"])
        assert world.pep.authorize(request).source == "pdp"
        world.pep.dispatcher = second = DecisionDispatcher(["pdp-b"])
        assert world.pep.authorize(request).source == "pdp"
        assert [pdp.decisions_made for pdp in world.pdps.values()] == [1, 1]
        assert second.outstanding == {"pdp-b": 0}

    def test_a_new_deadline_after_a_first_decision_takes_the_next(self):
        world = build(pdp_timeout=0.5)
        world.pdps["pdp"].config.envelope_overhead = 0.75
        request = RequestContext.simple("alice", "doc", "read")
        assert world.pep.authorize(request).source == "fail-safe"
        world.network.run(until=world.network.now + 5.0)  # the late reply
        world.pep.config.pdp_timeout = 1.0
        start = world.network.now
        assert world.pep.authorize(request).source == "pdp"
        # Answered past the old deadline, within the new one.
        assert 0.5 < world.network.now - start < 1.0
        world.pep.config.pdp_timeout = 0.5
        assert world.pep.authorize(request).source == "fail-safe"

    def test_one_pull_job_serves_decision_after_decision(self):
        world = build()
        request = RequestContext.simple("alice", "doc", "read")
        world.pep.authorize(request)
        job = world.pep._pull
        world.pep.authorize(request)
        assert world.pep._pull is job
