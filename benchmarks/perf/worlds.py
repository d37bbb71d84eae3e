"""The four benchmark worlds, built only from package-level ``repro.*`` names.

The builders are *copies* of the E16/E17/E18/E19 shapes, not imports of
them, so refactors of ``benchmarks/test_e*.py`` cannot move the
measuring stick.  Everything here goes through the import surface the
README pins: package ``__init__`` exports, routing-policy objects (not
string names), and ``drive_closed_loop``.

A :class:`Workload` says how to build a :class:`World` from a seed and
how to feed, disturb and check it; ``harness.py`` does the measuring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.components import (
    DecisionDispatcher,
    DomainDecisionGateway,
    FederatedGateway,
    LeastOutstandingRouting,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.domain import AdministrativeDomain, ResourceDirectory
from repro.revocation import (
    CoherenceAgent,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
)
from repro.simnet import INTRA_DOMAIN_LATENCY, Link, Network
from repro.workloads import (
    Population,
    PopulationSpec,
    ZipfSampler,
    federated_resource_id,
)
from repro.wss import KeyStore
from repro.xacml import (
    Decision,
    PdpEngine,
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

#: The PDP service-time model every E16/E17/E18 cell uses (simulated s).
ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025
FLUSH_DELAY = 0.0005
#: Origin-side accumulation window for forwarded envelopes (E18).
FORWARD_DELAY = 0.008

PLAIN_RESOURCES = 16
#: So many that no two requests in flight are ever the same one.  With
#: the issue's 200, an in-flight duplicate (0.8% of requests) shares a
#: slot, leaves a PEP's batch one short of its flush size and shifts the
#: flush phase of the whole cell: messages per decision then wander
#: between 0.16 and 0.23 within a run, and no bound could gate them.
#: Without duplicates the cell settles at exactly 0.125.
PLAIN_SUBJECTS = 10**9
PLAIN_READ_FRACTION = 0.9

HEAVY_SUBJECTS = 100_000
HEAVY_RESOURCES = 2_000
HEAVY_POLICIES = 20_000
HEAVY_WINDOW = 16
#: Every this many completions the observer republishes ...
HEAVY_REPLACE_EVERY = 500
#: ... this many content-identical policies through PolicyStore.replace().
HEAVY_REPLACE_BURST = 10

FED_DOMAINS = ("dom0", "dom1")
FED_PEPS_PER_DOMAIN = 3
FED_RESOURCES_PER_DOMAIN = 8
FED_SUBJECTS = 2_000
#: Tuned so that 0.6-0.9 of decisions are answered by a PEP or gateway
#: cache without reaching a PDP (0.72 at seed 11).
FED_SUBJECT_SKEW = 1.5
FED_REMOTE_FRACTION = 0.5
FED_PEP_CACHE_TTL = 1.0
FED_REMOTE_CACHE_TTL = 5.0
#: A subject is revoked every this many completions.
FED_REVOKE_EVERY = 5_000
#: Popularity rank of the first revoked subject; later revocations take
#: the following ranks.  Mid-popularity, so each revocation is audited
#: by real traffic without turning the hot set into guard denials.
FED_FIRST_REVOKED_RANK = 12
#: Simulated seconds after a revocation in which a stale grant is priced
#: staleness; a grant later than this is a failed operation.
FED_COHERENCE_WINDOW = 0.1


@dataclass
class World:
    """One built topology plus the handles the harness reads."""

    network: Network
    peps: list
    pdps: list
    #: Gateways (domain or federated); empty when PEPs talk to a PDP.
    hubs: list = field(default_factory=list)
    #: Coherence agents (``federated_cached`` only).
    agents: list = field(default_factory=list)
    #: Expected grant/deny for a request, from a bare engine (no wire).
    oracle: Callable[[RequestContext], bool] = None
    #: ``(every, fn)``: ``fn(world, completed)`` runs inside the measured
    #: phase every ``every`` completions (writes beside the reads).
    disturbances: list = field(default_factory=list)
    #: subject id -> simulated time its access was revoked.
    revoked_at: dict = field(default_factory=dict)
    #: Per-request attribute-finder factory a bare engine needs to decide
    #: like this world's PDPs (None: requests carry all they need).
    finder_for: Optional[Callable] = None


@dataclass(frozen=True)
class Workload:
    """How one named workload is built, fed and paced."""

    name: str
    #: ``build(seed, inputs)`` -> a fresh :class:`World`.
    build: Callable[[int, object], World]
    #: ``feeds(seed, inputs)`` -> one endless request iterator per PEP.
    feeds: Callable[[int, object], list]
    #: Outstanding requests per PEP (1 = blocking ``authorize`` calls).
    window: int
    #: Completions per measured chunk (about 40 ms on the 2-core box).
    chunk: int
    #: Completions the simulated metrics are pinned to: about half of
    #: what ``run_seconds`` completes on the box this was tuned on (two
    #: thirds on ``federated_cached``, whose cache hit shares need the
    #: most requests to settle).  A slower box runs on until it gets there.
    pinned: int
    #: ``inputs(seed, scale)`` -> seed-derived inputs shared by every
    #: rebuild of the world in one process (the mined policy corpus);
    #: timed apart from ``setup_s`` because it is input generation, not
    #: set-up.  ``scale`` below 1 shrinks them for smoke tests.
    inputs: Callable[[int, float], object] = lambda seed, scale: None
    #: Drive with blocking ``pep.authorize`` instead of the closed loop.
    sync: bool = False


def _engine_oracle(policies, finder_for=None) -> Callable[[RequestContext], bool]:
    engine = PdpEngine()
    engine.add_policies(policies)

    def expected(request: RequestContext) -> bool:
        if finder_for is not None:
            engine.attribute_finder = finder_for(request)
        return engine.decide(request) is Decision.PERMIT

    return expected


def _resource_policy(policy_id: str, resource_id: str, denied=()) -> Policy:
    """Reads permitted, the rest denied; ``denied`` subjects lose both."""
    return Policy(
        policy_id=policy_id,
        target=subject_resource_action_target(resource_id=resource_id),
        rules=tuple(
            deny_rule(
                f"revoked-{subject}",
                target=subject_resource_action_target(subject_id=subject),
            )
            for subject in denied
        )
        + (
            permit_rule(
                "reads", target=subject_resource_action_target(action_id="read")
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def _plain_policies() -> list[Policy]:
    return [
        _resource_policy(f"res-{index}-policy", f"res-{index}")
        for index in range(PLAIN_RESOURCES)
    ]


def _plain_requests(seed: int, label: str) -> Iterator[RequestContext]:
    """Uniform subjects and resources, 90% reads (the E17 mix)."""
    rng = random.Random(f"{seed}:{label}")
    while True:
        yield RequestContext.simple(
            f"user-{rng.randrange(PLAIN_SUBJECTS):09d}",
            f"res-{rng.randrange(PLAIN_RESOURCES)}",
            "read" if rng.random() < PLAIN_READ_FRACTION else "delete",
        )


# -- gateway_plain -----------------------------------------------------------------

GATEWAY_PEPS = 4
GATEWAY_REPLICAS = 2
GATEWAY_PEP_BATCH = 8
GATEWAY_SUPER_BATCH = 16


def build_gateway_plain(seed: int, inputs=None) -> World:
    """ROADMAP's reference cell: 4 PEPs -> gateway -> 2 PDP replicas."""
    network = Network(seed=seed)
    pap = PolicyAdministrationPoint("pap", network)
    policies = _plain_policies()
    for policy in policies:
        pap.publish(policy)
    pdps = [
        PolicyDecisionPoint(
            f"pdp-{index}",
            network,
            pap_address="pap",
            config=PdpConfig(
                policy_cache_ttl=3600.0,
                envelope_overhead=ENVELOPE_OVERHEAD,
                decision_service_time=DECISION_SERVICE_TIME,
            ),
        )
        for index in range(GATEWAY_REPLICAS)
    ]
    replicas = [pdp.name for pdp in pdps]
    hub = DomainDecisionGateway(
        "gateway",
        network,
        DecisionDispatcher(replicas, policy=LeastOutstandingRouting()),
        max_batch=GATEWAY_SUPER_BATCH,
        max_delay=FLUSH_DELAY,
    )
    peps = []
    for index in range(GATEWAY_PEPS):
        pep = PolicyEnforcementPoint(
            f"pep-{index}", network, config=PepConfig(decision_cache_ttl=0.0)
        )
        pep.enable_batching(
            max_batch=GATEWAY_PEP_BATCH, max_delay=FLUSH_DELAY, gateway=hub
        )
        peps.append(pep)
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    for replica in replicas:
        network.set_link("gateway", replica, local)
        network.set_link(replica, "pap", local)
    return World(
        network=network,
        peps=peps,
        pdps=pdps,
        hubs=[hub],
        oracle=_engine_oracle(policies),
    )


def gateway_plain_feeds(seed: int, inputs=None) -> list:
    return [
        _plain_requests(seed, f"gateway_plain:{index}")
        for index in range(GATEWAY_PEPS)
    ]


# -- policy_heavy ------------------------------------------------------------------


@dataclass
class HeavyInputs:
    population: Population
    policies: list


def heavy_inputs(seed: int, scale: float = 1.0) -> HeavyInputs:
    population = Population(
        PopulationSpec(
            subjects=HEAVY_SUBJECTS, resources=HEAVY_RESOURCES, seed=seed
        )
    )
    policies = max(200, int(HEAVY_POLICIES * min(scale, 1.0)))
    return HeavyInputs(population, population.policy_set(policies=policies))


def _resolver_finder(resolver):
    """The bare-engine twin of the PDP's resolver-backed finder."""

    def finder_for(request: RequestContext):
        attributes = resolver(request.subject_id or "") or {}

        def finder(category, attribute_id, data_type):
            return [
                value
                for value in attributes.get(attribute_id, [])
                if value.data_type is data_type
            ]

        return finder

    return finder_for


def _republish_burst(policies):
    """Rotate through the corpus, replacing ten policies per burst."""

    def burst(world: World, completed: int) -> None:
        store = world.pdps[0].engine.store
        start = (completed // HEAVY_REPLACE_EVERY) * HEAVY_REPLACE_BURST
        for offset in range(HEAVY_REPLACE_BURST):
            store.replace(policies[(start + offset) % len(policies)])

    return burst


def build_policy_heavy(seed: int, inputs: HeavyInputs) -> World:
    """1 PEP -> 1 PDP holding 20,000 mined policies in a local store."""
    network = Network(seed=seed)
    resolver = inputs.population.attribute_resolver()
    finder_for = _resolver_finder(resolver)
    pdp = PolicyDecisionPoint(
        "pdp",
        network,
        config=PdpConfig(
            envelope_overhead=ENVELOPE_OVERHEAD,
            decision_service_time=DECISION_SERVICE_TIME,
        ),
        attribute_resolver=resolver,
    )
    for policy in inputs.policies:
        pdp.add_local_policy(policy)
    pep = PolicyEnforcementPoint(
        "pep",
        network,
        pdp_address="pdp",
        config=PepConfig(decision_cache_ttl=0.0),
    )
    # Batch = window: with a batch smaller than the window the closed loop
    # settles into seed-dependent flush rhythms (0.31-0.46 messages per
    # decision across seeds), which no bound could gate.
    pep.enable_batching(max_batch=HEAVY_WINDOW, max_delay=FLUSH_DELAY)
    network.set_link("pep", "pdp", Link(latency=INTRA_DOMAIN_LATENCY))
    return World(
        network=network,
        peps=[pep],
        pdps=[pdp],
        oracle=_engine_oracle(inputs.policies, finder_for),
        disturbances=[(HEAVY_REPLACE_EVERY, _republish_burst(inputs.policies))],
        finder_for=finder_for,
    )


def policy_heavy_feeds(seed: int, inputs: HeavyInputs) -> list:
    return [inputs.population.request_contexts(10**9, seed=seed)]


# -- secure_sync -------------------------------------------------------------------


def build_secure_sync(seed: int, inputs=None) -> World:
    """The paper's literal pull model: one signed envelope each way."""
    network = Network(seed=seed)
    domain = AdministrativeDomain("acme", network, KeyStore(seed=seed))
    pap = domain.create_pap()
    policies = _plain_policies()
    for policy in policies:
        pap.publish(policy)
    pdp = domain.create_pdp(
        config=PdpConfig(
            require_signed_queries=True,
            sign_responses=True,
            envelope_overhead=ENVELOPE_OVERHEAD,
            decision_service_time=DECISION_SERVICE_TIME,
        )
    )
    pep = domain.create_pep("db", config=PepConfig(secure_channel=True))
    return World(
        network=network,
        peps=[pep],
        pdps=[pdp],
        oracle=_engine_oracle(policies),
    )


def secure_sync_feeds(seed: int, inputs=None) -> list:
    return [_plain_requests(seed, "secure_sync")]


# -- federated_cached --------------------------------------------------------------


def _fed_policies(domain_name: str, denied=()) -> list[Policy]:
    return [
        _resource_policy(
            f"{domain_name}-res-{index}-policy",
            federated_resource_id(domain_name, index),
            denied,
        )
        for index in range(FED_RESOURCES_PER_DOMAIN)
    ]


def _fed_subject(rank: int) -> str:
    return f"user-{rank}"


def _revoke_next(paps: dict, authority):
    """Revoke the next mid-popularity subject, VO-wide.

    Every domain republishes its policies with the cumulative deny list
    (the authoritative revocation), then one record goes out over the
    invalidation bus (what cleans the caches).
    """

    def revoke(world: World, completed: int) -> None:
        subject = _fed_subject(FED_FIRST_REVOKED_RANK + len(world.revoked_at))
        world.revoked_at[subject] = world.network.now
        denied = tuple(world.revoked_at)
        for name in FED_DOMAINS:
            for policy in _fed_policies(name, denied):
                paps[name].publish(policy)
        authority.registry.revoke_subject_access(subject)

    return revoke


def build_federated_cached(seed: int, inputs=None) -> World:
    """2 domains x (3 PEPs -> FederatedGateway -> 1 PDP), caches + coherence."""
    network = Network(seed=seed)
    directory = ResourceDirectory()
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    bus = InvalidationBus(network)
    authority = RevocationAuthority("authority.vo", network, bus=bus)
    paps, pdps, hubs, agents, peps, policies = {}, [], [], [], [], []
    for name in FED_DOMAINS:
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        domain_policies = _fed_policies(name)
        for policy in domain_policies:
            pap.publish(policy)
        policies.extend(domain_policies)
        paps[name] = pap
        pdp = PolicyDecisionPoint(
            f"pdp.{name}",
            network,
            domain=name,
            pap_address=pap.name,
            config=PdpConfig(
                policy_cache_ttl=3600.0,
                envelope_overhead=ENVELOPE_OVERHEAD,
                decision_service_time=DECISION_SERVICE_TIME,
            ),
        )
        network.set_link(pdp.name, pap.name, local)
        pdp.subscribe_to_policy_changes()
        pdps.append(pdp)
        for index in range(FED_RESOURCES_PER_DOMAIN):
            directory.register(federated_resource_id(name, index), name)
        hub = FederatedGateway(
            f"gateway.{name}",
            network,
            DecisionDispatcher([pdp.name], policy=LeastOutstandingRouting()),
            domain=name,
            resolve_domain=directory.resolver(),
            max_batch=FED_PEPS_PER_DOMAIN * 8,
            max_delay=FLUSH_DELAY,
            forward_delay=FORWARD_DELAY,
            remote_cache_ttl=FED_REMOTE_CACHE_TTL,
        )
        network.set_link(hub.name, pdp.name, local)
        hubs.append(hub)
        agent = CoherenceAgent(
            f"coherence.{name}",
            network,
            authority.name,
            PushStrategy(bus),
            domain=name,
        )
        agent.protect_gateway(hub)
        agents.append(agent)
        for index in range(FED_PEPS_PER_DOMAIN):
            pep = PolicyEnforcementPoint(
                f"pep-{index}.{name}",
                network,
                domain=name,
                config=PepConfig(decision_cache_ttl=FED_PEP_CACHE_TTL),
            )
            pep.enable_batching(max_batch=8, max_delay=FLUSH_DELAY, gateway=hub)
            agent.protect_pep(pep)
            peps.append(pep)
    for origin in hubs:
        for target in hubs:
            if origin is not target:
                origin.add_peer(target.domain, target.name)
                target.allow_origin(origin.domain, origin.name)
    return World(
        network=network,
        peps=peps,
        pdps=pdps,
        hubs=hubs,
        agents=agents,
        oracle=_engine_oracle(policies),
        disturbances=[(FED_REVOKE_EVERY, _revoke_next(paps, authority))],
    )


def _fed_requests(seed: int, home: str, index: int) -> Iterator[RequestContext]:
    """Zipf subjects, half the requests governed by the other domain."""
    rng = random.Random(f"{seed}:federated_cached:{home}:{index}")
    ranks = ZipfSampler(FED_SUBJECTS, FED_SUBJECT_SKEW, rng)
    remote = [name for name in FED_DOMAINS if name != home]
    while True:
        governing = (
            remote[rng.randrange(len(remote))]
            if rng.random() < FED_REMOTE_FRACTION
            else home
        )
        yield RequestContext.simple(
            _fed_subject(ranks.sample()),
            federated_resource_id(
                governing, rng.randrange(FED_RESOURCES_PER_DOMAIN)
            ),
            "read" if rng.random() < PLAIN_READ_FRACTION else "delete",
        )


def federated_cached_feeds(seed: int, inputs=None) -> list:
    return [
        _fed_requests(seed, name, index)
        for name in FED_DOMAINS
        for index in range(FED_PEPS_PER_DOMAIN)
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="gateway_plain",
            build=build_gateway_plain,
            feeds=gateway_plain_feeds,
            window=8,
            chunk=130,
            pinned=24_000,
        ),
        Workload(
            name="policy_heavy",
            build=build_policy_heavy,
            feeds=policy_heavy_feeds,
            window=HEAVY_WINDOW,
            chunk=32,
            pinned=4_000,
            inputs=heavy_inputs,
        ),
        Workload(
            name="secure_sync",
            build=build_secure_sync,
            feeds=secure_sync_feeds,
            window=1,
            chunk=75,
            pinned=15_000,
            sync=True,
        ),
        Workload(
            name="federated_cached",
            build=build_federated_cached,
            feeds=federated_cached_feeds,
            window=8,
            chunk=200,
            pinned=40_000,
        ),
    )
}


def spare_policies(count: int) -> list[Policy]:
    """Policies no world holds (what the store ``add`` probe inserts)."""
    return [
        _resource_policy(f"spare-{index}-policy", f"spare-res-{index}")
        for index in range(count)
    ]
