"""Observer hook threading: every completion hands a *matching* triple.

The closed-loop driver invokes ``observer(pep, request, result)`` on
every completion.  These tests pin the pairing — the exact submitted
request object, handed back with *its* PEP and *its* result — across
every completion path: the ordinary batched round trip, coalesced
duplicates, replica failover, total-failure fail-safe denial, and the
federated gateway's remote-decision cache hit.  Policies are chosen so
the correct result is derivable from the request alone
(``granted == (action == "read")``), which makes a swapped pairing
detectable rather than silently plausible.
"""

from repro.components import (
    DecisionDispatcher,
    FederatedGateway,
    LeastOutstandingRouting,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import Network
from repro.workloads import drive_closed_loop
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def reads_only_policy(policy_id="reads-only", resource_id=None):
    """Permit ``read``, deny everything else — so the right result is a
    pure function of the request."""
    extra = (
        {"target": subject_resource_action_target(resource_id=resource_id)}
        if resource_id
        else {}
    )
    return Policy(
        policy_id=policy_id,
        **extra,
        rules=(
            permit_rule(
                "reads",
                target=subject_resource_action_target(action_id="read"),
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


class TripleRecorder:
    """Collects observer callbacks and checks pairing invariants."""

    def __init__(self):
        self.triples = []

    def __call__(self, pep, request, result):
        self.triples.append((pep, request, result))

    def assert_matches(self, requests_by_pep, granted_when_read=True):
        """Every submitted request object seen exactly once, with its
        own PEP, and a result derivable from the request itself."""
        expected = {
            id(request): (pep, request)
            for pep, requests in requests_by_pep.items()
            for request in requests
        }
        seen = set()
        for pep, request, result in self.triples:
            assert request is not None, "observer saw request=None"
            key = id(request)
            assert key in expected, "observer saw an unsubmitted request"
            assert key not in seen, "observer saw a request twice"
            seen.add(key)
            owner, original = expected[key]
            assert pep is owner, (
                f"request {request.resource_id} submitted via "
                f"{owner.name} but observed with {pep.name}"
            )
            assert request is original
            if granted_when_read:
                assert result.granted == (request.action_id == "read"), (
                    f"{pep.name}: {request.action_id} on "
                    f"{request.resource_id} got granted={result.granted} "
                    "— result paired with the wrong request"
                )
        assert len(seen) == len(expected), (
            f"observer saw {len(seen)} of {len(expected)} completions"
        )


def mixed_requests(count, resource_prefix="doc", start=0):
    """Fresh request objects (identity matters), read/delete mix."""
    return [
        RequestContext.simple(
            f"user-{index % 3}",
            f"{resource_prefix}-{index % 4}",
            "read" if index % 3 != 2 else "delete",
        )
        for index in range(start, start + count)
    ]


def build_domain(replicas=2, pep_count=2, seed=71):
    network = Network(seed=seed)
    pap = PolicyAdministrationPoint("pap", network)
    pap.publish(reads_only_policy())
    pdps = [
        PolicyDecisionPoint(f"pdp-{i}", network, pap_address="pap")
        for i in range(replicas)
    ]
    peps = []
    for index in range(pep_count):
        pep = PolicyEnforcementPoint(
            f"pep-{index}",
            network,
            config=PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(
            max_batch=4,
            max_delay=0.001,
            dispatcher=DecisionDispatcher(
                [pdp.name for pdp in pdps], policy=LeastOutstandingRouting()
            ),
        )
        peps.append(pep)
    return network, pdps, peps


class TestMultiPepObserver:
    def test_every_completion_pairs_pep_request_result(self):
        network, pdps, peps = build_domain()
        streams = [mixed_requests(12, f"doc{i}") for i in range(len(peps))]
        recorder = TripleRecorder()
        stats = drive_closed_loop(
            peps, streams, concurrency=4, observer=recorder
        )
        assert stats.fleet.completed == 24
        recorder.assert_matches(dict(zip(peps, streams, strict=True)))

    def test_coalesced_duplicates_each_get_their_own_callback(self):
        """Identical requests dedup onto one wire slot, but the observer
        must still see each submitted object exactly once."""
        network, pdps, peps = build_domain(pep_count=1)
        # Fresh objects, pairwise-identical content: dedup by value,
        # observed by identity.
        stream = [
            RequestContext.simple("alice", f"doc-{index // 2}", "read")
            for index in range(8)
        ]
        recorder = TripleRecorder()
        stats = drive_closed_loop(
            peps, [stream], concurrency=8, observer=recorder
        )
        assert stats.fleet.completed == 8
        assert peps[0].coalescer.deduplicated > 0
        recorder.assert_matches({peps[0]: stream})

    def test_failover_path_keeps_pairing(self):
        """A replica dies mid-run; retransmitted batches must complete
        with their original request objects."""
        network, pdps, peps = build_domain(replicas=2)
        streams = [mixed_requests(16, f"doc{i}") for i in range(len(peps))]
        recorder = TripleRecorder()
        network.loop.schedule(0.004, pdps[0].crash)
        stats = drive_closed_loop(
            peps, streams, concurrency=4, observer=recorder
        )
        assert stats.fleet.completed == 32
        assert sum(pep.coalescer.failovers for pep in peps) >= 1, (
            "crash never forced a failover — the scenario is not "
            "exercising the retransmit path"
        )
        recorder.assert_matches(dict(zip(peps, streams, strict=True)))

    def test_total_failure_fail_safe_path_keeps_pairing(self):
        """Every replica dead: results are fail-safe denials, and the
        observer still gets each request object with its own result."""
        network, pdps, peps = build_domain(replicas=2, pep_count=1)
        for pdp in pdps:
            pdp.crash()
        stream = mixed_requests(6)
        recorder = TripleRecorder()
        stats = drive_closed_loop(
            peps, [stream], concurrency=6, observer=recorder
        )
        assert stats.fleet.completed == 6
        assert stats.fleet.granted == 0
        # Denials here come from exhaustion, not policy: skip the
        # read→granted derivation and pin source instead.
        recorder.assert_matches({peps[0]: stream}, granted_when_read=False)
        assert all(
            result.source == "fail-safe"
            for _, _, result in recorder.triples
        )


def build_federated_pair(remote_cache_ttl=60.0, seed=72):
    """Two domains, one PEP each, gateway remote-decision cache on."""
    network = Network(seed=seed)
    directory = {"res.west": "west", "res.east": "east"}
    hubs = {}
    peps_by_domain = {}
    for name in ("west", "east"):
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        pap.publish(
            reads_only_policy(
                policy_id=f"{name}-policy", resource_id=f"res.{name}"
            )
        )
        PolicyDecisionPoint(
            f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
        )
        hubs[name] = FederatedGateway(
            f"gw.{name}",
            network,
            DecisionDispatcher([f"pdp.{name}"]),
            domain=name,
            resolve_domain=lambda requests, then: then(
                [directory.get(request.resource_id) for request in requests]
            ),
            max_batch=8,
            max_delay=0.001,
            remote_cache_ttl=remote_cache_ttl,
        )
        pep = PolicyEnforcementPoint(
            f"pep.{name}",
            network,
            domain=name,
            config=PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs[name])
        peps_by_domain[name] = [pep]
    for origin, target in (("west", "east"), ("east", "west")):
        hubs[origin].add_peer(target, hubs[target].name)
        hubs[target].allow_origin(origin, hubs[origin].name)
    return network, peps_by_domain, hubs


class TestFederatedObserver:
    def test_gateway_cache_hit_path_keeps_pairing(self):
        """Repeated remote requests hit the gateway's remote-decision
        cache; the cached delivery must still pair each submitted
        object with its own result."""
        network, peps_by_domain, hubs = build_federated_pair()
        # The west PEP asks about the *east* resource over and over
        # (fresh objects each time) with an interleaved delete, plus
        # local traffic; east mirrors it.
        names = sorted(peps_by_domain)
        peps = [peps_by_domain[name][0] for name in names]
        streams = [
            [
                RequestContext.simple(
                    "alice",
                    f"res.{other if index % 2 else name}",
                    "read" if index != 5 else "delete",
                )
                for index in range(10)
            ]
            for name, other in zip(names, reversed(names), strict=True)
        ]
        recorder = TripleRecorder()
        stats = drive_closed_loop(
            peps, streams, concurrency=2, observer=recorder, groups=names
        )
        assert stats.fleet.completed == 20
        assert sum(hub.remote_cache_hits for hub in hubs.values()) > 0, (
            "no remote-decision cache hit — the scenario is not "
            "exercising the cached delivery path"
        )
        recorder.assert_matches(dict(zip(peps, streams, strict=True)))
