"""E18 — cross-domain gateway federation vs per-PEP direct remote access.

Paper context: the architecture's whole subject is *multi-domain*
access control — resources governed by autonomous domains, each with
its own decision tier.  Through E17 every decision still terminated
inside one domain.  This experiment measures the cross-domain path: a
configurable fraction of every PEP's requests target resources governed
by *another* domain, and the two ways of reaching that domain's PDP
tier are compared at equal offered load:

* **direct** (the naive baseline): every PEP routes its remote-domain
  requests straight at the governing domain's replicas — one envelope
  per PEP per remote domain per flush, plus per-PEP envelopes for its
  local traffic (the PR 3 per-PEP shape, extended across domains);
* **federated**: every domain's PEPs share one
  :class:`~repro.components.federation.FederatedGateway`; local slots
  ride the domain super-batch, remote slots merge into *one* forwarded
  envelope per target domain per drain, travel gateway→gateway, and are
  served by the peer's own aggregation tier.

Reported per (domains × replicas × remote-fraction) cell: decisions/s,
messages/decision, queueing p95, forwarded envelopes and cross-PEP
dedup.  The acceptance shape: federation strictly cuts messages per
decision at every remote fraction (it also aggregates local traffic, so
the saving holds at fraction 0 too), and both modes produce *identical*
grant/deny outcomes — routing may move, decisions may not.

``REPRO_BENCH_SMOKE=1`` shrinks every sweep to a CI-sized single pass.
"""

import os
from dataclasses import dataclass

from repro.bench import Experiment
from repro.components import (
    DecisionDispatcher,
    FederatedGateway,
    LeastOutstandingRouting,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import INTRA_DOMAIN_LATENCY, Link, Network
from repro.domain import (
    DirectoryClient,
    DirectoryService,
    LOOKUP_ACTION,
    ResourceDirectory,
)
from repro.revocation import (
    CoherenceAgent,
    InvalidationBus,
    PushStrategy,
    RevocationAuthority,
)
from repro.workloads import (
    StalenessAudit,
    drive_closed_loop,
    federated_resource_id,
    multi_domain_request_mix,
)
from repro.xacml import (
    Policy,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

RESOURCES_PER_DOMAIN = 8
SUBJECTS = 120
#: Closed-loop requests *per PEP*.
EVENTS = 48 if SMOKE else 160
PEPS_PER_DOMAIN = 3
#: Per-PEP outstanding window; offered load is domains × PEPs × this.
CONCURRENCY = 8
PEP_BATCH = 8

ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025
FLUSH_DELAY = 0.0005
#: Origin-side accumulation window for forwarded envelopes — ~20% of
#: the inter-domain round trip (2 × 20 ms), the forwarding-tier tuning
#: rule the README documents.  The window is what keeps the two-hop
#: federated path cheaper than direct even after the closed loop has
#: decayed to trickle-sized local drains.
FORWARD_DELAY = 0.008

REMOTE_FRACTIONS = (0.2, 0.5) if SMOKE else (0.0, 0.2, 0.5, 0.8)
DOMAIN_COUNTS = (2,) if SMOKE else (2, 3)
REPLICA_COUNTS = (1,) if SMOKE else (1, 2)


def domain_names(count: int) -> list[str]:
    return [f"dom{index}" for index in range(count)]


def publish_domain_policies(pap, domain_name: str) -> None:
    """Each domain's PAP holds policies for *its own* resources only.

    This is what makes governance real: only the governing domain's PDP
    tier can answer for its resources, so remote requests must actually
    travel there.
    """
    for index in range(RESOURCES_PER_DOMAIN):
        pap.publish(
            Policy(
                policy_id=f"{domain_name}-res-{index}-policy",
                target=subject_resource_action_target(
                    resource_id=federated_resource_id(domain_name, index)
                ),
                rules=(
                    permit_rule(
                        "reads",
                        target=subject_resource_action_target(
                            action_id="read"
                        ),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )


def gateway_batch_for(pep_count: int, replicas: int) -> int:
    """Same gateway-tier sizing rule E17 documents."""
    return max(PEP_BATCH, (pep_count * PEP_BATCH) // replicas)


@dataclass
class FederatedVO:
    """Everything one parameterised VO build produces."""

    network: Network
    peps_by_domain: dict
    #: Federated mode: one gateway per domain.  Direct mode: empty.
    gateways: list
    #: Direct mode: the per-PEP private routers.  Federated mode: empty.
    routers: list
    #: Per-domain PAPs (revocation scenarios republish through these).
    paps: dict
    #: The VO-wide revocation authority (``coherence=True`` builds only).
    authority: object = None
    #: Per-domain directory clients (``directory_mode="service"`` only).
    clients: dict = None
    #: Governance move of the "moving" resource (``moving_resource``
    #: builds only) through whichever directory tier is in play.
    transfer: object = None

    @property
    def hubs(self):
        """The routing tier, whichever mode built it."""
        return self.gateways if self.gateways else self.routers


def build_federated_vo(
    domains: int = 2,
    replicas: int = 1,
    peps_per_domain: int = PEPS_PER_DOMAIN,
    mode: str = "federated",
    remote_cache_ttl: float = 0.0,
    coherence: bool = False,
    directory_mode: str = "inproc",
    directory_ttl: float = 0.02,
    subscribe: bool = False,
    moving_resource: bool = False,
    seed: int = 18,
) -> FederatedVO:
    """A VO of N domains, each with its own PAP + replica set + PEPs.

    One builder, every E18 topology:

    * ``mode="federated"``: one FederatedGateway per domain, full-mesh
      peering.  ``mode="direct"``: one private router per PEP with
      direct routes at every remote replica set — the naive baseline
      (identical classification machinery, no cross-PEP or
      cross-domain aggregation).
    * ``coherence=True`` adds the E18c plane: gateway remote-decision
      caches at ``remote_cache_ttl``, a VO-wide revocation authority
      pushing over the invalidation bus to per-domain coherence
      agents, and change-subscribed PDPs.
    * ``directory_mode="service"`` replaces the in-process resolver
      with a DirectoryService + per-domain TTL'd DirectoryClients
      (E18d); ``moving_resource=True`` publishes the transferable
      resource's policy identically in the first two domains and
      returns a ``transfer()`` hook that moves its governance.
    """
    if mode not in ("federated", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    if directory_mode not in ("inproc", "service"):
        raise ValueError(f"unknown directory mode {directory_mode!r}")
    if mode == "direct" and (coherence or directory_mode != "inproc"):
        raise ValueError(
            "coherence / directory-service planes attach to the "
            "federated gateway tier; direct mode has none"
        )
    network = Network(seed=seed)
    names = domain_names(domains)
    directory = ResourceDirectory()
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    moving = federated_resource_id(names[0], 0)
    bus = authority = None
    if coherence:
        bus = InvalidationBus(network)
        authority = RevocationAuthority("authority.vo", network, bus=bus)
    replica_names: dict[str, list[str]] = {}
    paps: dict[str, PolicyAdministrationPoint] = {}
    for name in names:
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        publish_domain_policies(pap, name)
        paps[name] = pap
        if moving_resource and name == names[1]:
            # The adopted copy of the moving resource's policy: the
            # destination domain can answer for it identically.
            pap.publish(
                Policy(
                    policy_id=f"{name}-adopted-{moving}-policy",
                    target=subject_resource_action_target(resource_id=moving),
                    rules=(
                        permit_rule(
                            "reads",
                            target=subject_resource_action_target(
                                action_id="read"
                            ),
                        ),
                        deny_rule("rest"),
                    ),
                    rule_combining=combining.RULE_FIRST_APPLICABLE,
                )
            )
        pdps = [
            PolicyDecisionPoint(
                f"pdp-{index}.{name}",
                network,
                domain=name,
                pap_address=pap.name,
                config=PdpConfig(
                    policy_cache_ttl=3600.0,
                    envelope_overhead=ENVELOPE_OVERHEAD,
                    decision_service_time=DECISION_SERVICE_TIME,
                ),
            )
            for index in range(replicas)
        ]
        replica_names[name] = [pdp.name for pdp in pdps]
        for pdp in pdps:
            network.set_link(pdp.name, pap.name, local)
            if coherence:
                pdp.subscribe_to_policy_changes()
        for index in range(RESOURCES_PER_DOMAIN):
            directory.register(federated_resource_id(name, index), name)
    service = None
    clients: dict[str, DirectoryClient] = {}
    if directory_mode == "service":
        service = DirectoryService("dirsvc", network, directory)
    inproc_resolver = directory.resolver()
    gateways: list[FederatedGateway] = []
    routers: dict[str, list[FederatedGateway]] = {name: [] for name in names}
    peps_by_domain: dict[str, list[PolicyEnforcementPoint]] = {}
    for name in names:
        if directory_mode == "service":
            client = DirectoryClient(
                f"dircl.{name}",
                network,
                "dirsvc",
                ttl=directory_ttl,
                domain=name,
                subscribe=subscribe,
            )
            # A well-placed registry: fast link from each domain's
            # resolver to the directory service.
            network.set_link(client.name, "dirsvc", local)
            clients[name] = client
            resolve = client.resolver()
            resolve_authoritative = client.authoritative_resolver()
        else:
            resolve = inproc_resolver
            resolve_authoritative = None
        peps = []
        if mode == "federated":
            hub = FederatedGateway(
                f"gateway.{name}",
                network,
                DecisionDispatcher(
                    replica_names[name], policy=LeastOutstandingRouting()
                ),
                domain=name,
                resolve_domain=resolve,
                resolve_authoritative=resolve_authoritative,
                max_batch=gateway_batch_for(peps_per_domain, replicas),
                max_delay=FLUSH_DELAY,
                forward_delay=FORWARD_DELAY,
                remote_cache_ttl=remote_cache_ttl,
            )
            gateways.append(hub)
            for replica in replica_names[name]:
                network.set_link(hub.name, replica, local)
            if coherence:
                agent = CoherenceAgent(
                    f"coherence.{name}",
                    network,
                    authority.name,
                    PushStrategy(bus),
                    domain=name,
                )
                agent.protect_gateway(hub)
        for index in range(peps_per_domain):
            pep = PolicyEnforcementPoint(
                f"pep-{index}.{name}",
                network,
                domain=name,
                config=PepConfig(decision_cache_ttl=0.0),
            )
            if mode == "federated":
                pep.enable_batching(
                    max_batch=PEP_BATCH, max_delay=FLUSH_DELAY, gateway=hub
                )
            else:
                router = FederatedGateway(
                    f"router.{pep.name}",
                    network,
                    DecisionDispatcher(
                        replica_names[name], policy=LeastOutstandingRouting()
                    ),
                    domain=name,
                    resolve_domain=resolve,
                    max_batch=PEP_BATCH,
                    max_delay=FLUSH_DELAY,
                )
                routers[name].append(router)
                for replica in replica_names[name]:
                    network.set_link(router.name, replica, local)
                pep.enable_batching(
                    max_batch=PEP_BATCH, max_delay=FLUSH_DELAY, gateway=router
                )
            peps.append(pep)
        peps_by_domain[name] = peps
    if mode == "federated":
        for origin in gateways:
            for target in gateways:
                if origin is not target:
                    origin.add_peer(target.domain, target.name)
                    target.allow_origin(origin.domain, origin.name)
    else:
        for name in names:
            for router in routers[name]:
                for other in names:
                    if other != name:
                        router.add_direct_route(
                            other,
                            DecisionDispatcher(
                                replica_names[other],
                                policy=LeastOutstandingRouting(),
                            ),
                        )

    transfer = None
    if moving_resource:

        def transfer() -> None:
            if service is not None:
                service.transfer(moving, names[1])
            else:
                directory.transfer(moving, names[1])

    return FederatedVO(
        network=network,
        peps_by_domain=peps_by_domain,
        gateways=gateways,
        routers=[router for name in names for router in routers[name]],
        paps=paps,
        authority=authority,
        clients=clients,
        transfer=transfer,
    )


def drive(
    network,
    peps_by_domain,
    remote_fraction: float,
    events: int = EVENTS,
    concurrency: int = CONCURRENCY,
    subjects: int = SUBJECTS,
    read_fraction: float = 0.9,
    observer=None,
):
    names = sorted(peps_by_domain)
    peps, requests, owners = [], [], []
    for domain_index, name in enumerate(names):
        for pep_index, pep in enumerate(peps_by_domain[name]):
            peps.append(pep)
            owners.append(name)
            requests.append(
                multi_domain_request_mix(
                    name,
                    names,
                    events,
                    remote_fraction,
                    resources_per_domain=RESOURCES_PER_DOMAIN,
                    subjects=subjects,
                    read_fraction=read_fraction,
                    seed=1000 + 37 * domain_index + pep_index,
                )
            )
    return drive_closed_loop(
        peps,
        requests,
        concurrency=concurrency,
        observer=observer,
        groups=owners,
    )


def test_e18_federated_vs_direct(benchmark):
    experiment = Experiment(
        exp_id="E18",
        title="Gateway federation vs per-PEP direct remote access "
        f"({PEPS_PER_DOMAIN} PEPs/domain, {EVENTS} requests/PEP, "
        f"window {CONCURRENCY}/PEP)",
        paper_claim="cross-domain decision flows should ride the same "
        "aggregation discipline as intra-domain ones: one forwarded, "
        "signed envelope per target domain per round instead of every "
        "enforcement point paying per-envelope cost against every "
        "remote decision tier",
        columns=[
            "domains",
            "replicas",
            "remote_frac",
            "mode",
            "decisions_per_sec",
            "msgs_per_decision",
            "queue_p95_ms",
            "forwarded",
            "cross_pep_dedup",
        ],
    )
    for domains in DOMAIN_COUNTS:
        for replicas in REPLICA_COUNTS:
            for remote_fraction in REMOTE_FRACTIONS:
                measured = {}
                grants = {}
                for mode in ("direct", "federated"):
                    vo = build_federated_vo(domains, replicas, mode=mode)
                    peps_by_domain, hubs = vo.peps_by_domain, vo.hubs
                    stats = drive(vo.network, peps_by_domain, remote_fraction)
                    total = domains * PEPS_PER_DOMAIN * EVENTS
                    assert stats.fleet.completed == total, (
                        f"{mode} domains={domains} replicas={replicas} "
                        f"frac={remote_fraction}: "
                        f"{stats.fleet.completed}/{total} completed"
                    )
                    for peps in peps_by_domain.values():
                        assert all(
                            pep.fail_safe_denials == 0 for pep in peps
                        )
                    assert all(hub.unknown_domain_denials == 0 for hub in hubs)
                    measured[mode] = stats
                    grants[mode] = stats.fleet.granted
                    experiment.add_row(
                        domains,
                        replicas,
                        remote_fraction,
                        mode,
                        round(stats.fleet.decisions_per_sec, 1),
                        round(stats.fleet.messages_per_decision, 3),
                        round(stats.fleet.queue_latency.p95 * 1000, 2),
                        sum(hub.forwarded_batches_sent for hub in hubs),
                        sum(hub.cross_pep_deduplicated for hub in hubs),
                    )
                # Moving the routing tier must not move a single
                # decision: same streams, same grants, either mode.
                assert grants["federated"] == grants["direct"]
                # The acceptance shape: federation strictly cuts wire
                # messages per decision at equal offered load, at every
                # swept remote fraction.
                assert (
                    measured["federated"].fleet.messages_per_decision
                    < measured["direct"].fleet.messages_per_decision
                )
    experiment.note(
        f"PDP service model: {ENVELOPE_OVERHEAD * 1000:.1f} ms/envelope + "
        f"{DECISION_SERVICE_TIME * 1000:.2f} ms/decision; per-PEP batch "
        f"{PEP_BATCH}; each domain's PAP holds only its own resources' "
        "policies, so remote traffic genuinely crosses domains"
    )
    experiment.note(
        "direct = every PEP classifies its own requests and sends "
        "per-PEP envelopes at the governing replica set (naive "
        "baseline); federated = one gateway per domain, remote slots "
        "merged into one forwarded envelope per target domain per "
        "drain, served by the peer's aggregation tier"
    )
    experiment.note(
        "grant counts are asserted identical between modes: federation "
        "moves messages, never decisions"
    )
    experiment.show()

    def small_run():
        vo = build_federated_vo(2, 1, peps_per_domain=2, seed=181)
        return drive(
            vo.network, vo.peps_by_domain, remote_fraction=0.5, events=16
        )

    benchmark(small_run)


def test_e18_remote_fraction_cost_profile():
    """Forwarded envelopes scale with drains, not with remote requests.

    The per-request message cost of the federated path stays bounded as
    the remote share grows: forwarding amortises across all of a
    domain's PEPs, so doubling the remote fraction must not double
    messages per decision.
    """
    experiment = Experiment(
        exp_id="E18b",
        title="Federated message cost vs remote fraction (2 domains, "
        "1 replica)",
        paper_claim="the forwarded-envelope profile keeps cross-domain "
        "message cost amortised as remote share grows",
        columns=[
            "remote_frac",
            "msgs_per_decision",
            "forwarded_envelopes",
            "remote_decisions",
            "forwarded_served",
        ],
    )
    fractions = (0.2, 0.8) if SMOKE else (0.1, 0.3, 0.5, 0.7, 0.9)
    cost = {}
    for remote_fraction in fractions:
        vo = build_federated_vo(2, 1)
        hubs = vo.hubs
        stats = drive(vo.network, vo.peps_by_domain, remote_fraction)
        assert stats.fleet.completed == 2 * PEPS_PER_DOMAIN * EVENTS
        cost[remote_fraction] = stats.fleet.messages_per_decision
        experiment.add_row(
            remote_fraction,
            round(stats.fleet.messages_per_decision, 3),
            sum(hub.forwarded_batches_sent for hub in hubs),
            sum(hub.remote_decisions_delivered for hub in hubs),
            sum(hub.forwarded_batches_served for hub in hubs),
        )
    experiment.note(
        "a remote decision costs two hops (origin gateway → peer "
        "gateway → replica) instead of one, but both hops carry "
        "domain-aggregated envelopes — cost grows far slower than the "
        "remote share"
    )
    experiment.show()
    low, high = min(fractions), max(fractions)
    ratio = cost[high] / cost[low]
    share_ratio = high / low
    assert ratio < share_ratio, (
        f"msgs/decision grew {ratio:.2f}x while remote share grew "
        f"{share_ratio:.2f}x — forwarding is not amortising"
    )


# -- E18c: the gateway-tier remote-decision cache ------------------------------------

#: Hot-subject population for the cache grid: identities must repeat
#: across PEPs and across time for a decision cache to have anything to
#: amortise (the VO-wide SUBJECTS population is deliberately too cold).
GRID_SUBJECTS = 4
#: The grid keeps full-length streams even under smoke: a decision
#: cache needs enough reuse distance per cell for the TTL sweep to
#: mean anything, and one 2-domain cell is still CI-sized.
GRID_EVENTS = 160
#: remote-decision cache TTLs swept by the grid; 0 is the PR 4
#: baseline, 0.05 is deliberately undersized (expires mid-run), 1.0
#: covers the whole run (the recommended shape: bound staleness with
#: coherence, not with a TTL shorter than the reuse distance).
GRID_CACHE_TTLS = (0.0, 0.05, 1.0)
COVERING_TTL = 1.0
GRID_FRACTIONS = (0.2, 0.5) if SMOKE else (0.2, 0.5, 0.8)
#: The mid-run revocation the staleness audit prices.
REVOKED_SUBJECT = "user-0"
REVOKE_AT = 0.03
#: Post-revocation tolerance: one push propagation plus in-flight
#: round-trip slack.  A grant completing later than this is a violation.
COHERENCE_WINDOW = 0.1


def publish_revoked_policies(pap, domain_name: str, subject_id: str) -> None:
    """Revised per-resource policies: the subject is now denied.

    The governing domain's *authoritative* revocation — fresh decisions
    deny from here on; what the experiment measures is how long caches
    keep serving the old world.
    """
    for index in range(RESOURCES_PER_DOMAIN):
        pap.publish(
            Policy(
                policy_id=f"{domain_name}-res-{index}-policy",
                target=subject_resource_action_target(
                    resource_id=federated_resource_id(domain_name, index)
                ),
                rules=(
                    deny_rule(
                        "revoked-subject",
                        target=subject_resource_action_target(
                            subject_id=subject_id
                        ),
                    ),
                    permit_rule(
                        "reads",
                        target=subject_resource_action_target(
                            action_id="read"
                        ),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )


def schedule_revocation(network, paps, authority, audit) -> None:
    """Mid-run: every domain's policies drop the subject + one record."""

    def fire() -> None:
        audit.mark_revoked(network.now)
        for name, pap in sorted(paps.items()):
            publish_revoked_policies(pap, name, REVOKED_SUBJECT)
        authority.registry.revoke_subject_access(REVOKED_SUBJECT)

    network.loop.schedule(REVOKE_AT, fire, label="e18c-revoke")


def run_cache_cell(
    remote_fraction: float,
    cache_ttl: float,
    events: int = None,
    seed: int = 18,
):
    """One grid cell: hot workload + mid-run revocation, audited.

    The VO carries the coherence plane (``coherence=True``): a
    revocation bites fresh decisions immediately through the
    change-subscribed PDPs, and cached ones within the push agents'
    reach.
    """
    vo = build_federated_vo(
        2, 1, remote_cache_ttl=cache_ttl, coherence=True, seed=seed
    )
    audit = StalenessAudit(REVOKED_SUBJECT, COHERENCE_WINDOW)
    schedule_revocation(vo.network, vo.paps, vo.authority, audit)
    stats = drive(
        vo.network,
        vo.peps_by_domain,
        remote_fraction,
        events=events if events is not None else GRID_EVENTS,
        subjects=GRID_SUBJECTS,
        read_fraction=1.0,
        observer=audit,
    )
    return stats, vo.gateways, audit


def test_e18c_gateway_cache_grid():
    """Gateway-tier caching strictly cuts msgs/decision, stale-free.

    Grid: cache off/short/long × remote fraction, every cell carrying a
    mid-run revocation of a hot subject.  Acceptance: at every remote
    fraction >= 0.2, each cache-on cell moves strictly fewer messages
    per decision than the cache-off (PR 4) cell — with *zero* grants of
    the revoked subject completing after the coherence window.
    """
    experiment = Experiment(
        exp_id="E18c",
        title="Gateway-tier remote-decision cache: message cost vs "
        f"priced staleness (2 domains, {PEPS_PER_DOMAIN} PEPs/domain, "
        f"{GRID_SUBJECTS} hot subjects, revoke at t={REVOKE_AT}s)",
        paper_claim="§3.2: enforcement-side caching cuts cross-domain "
        "round trips but 'reduces the flexibility of revoking old "
        "access control rules'; time-bounded validity plus selective "
        "invalidation makes the trade a dial",
        columns=[
            "remote_frac",
            "cache_ttl",
            "msgs_per_decision",
            "decisions_per_sec",
            "requests_forwarded",
            "cache_hits",
            "hit_ratio",
            "fenced",
            "stale_in_window",
            "violations",
        ],
    )
    for remote_fraction in GRID_FRACTIONS:
        baseline_msgs = None
        baseline_forwarded = None
        for cache_ttl in GRID_CACHE_TTLS:
            stats, hubs, audit = run_cache_cell(remote_fraction, cache_ttl)
            total = 2 * PEPS_PER_DOMAIN * GRID_EVENTS
            assert stats.fleet.completed == total
            # The revocation genuinely bit mid-run and traffic kept
            # flowing past the coherence window.
            assert audit.revoked_at is not None
            assert audit.denials_after > 0
            assert stats.fleet.duration > REVOKE_AT + COHERENCE_WINDOW
            cache_stats = [hub.remote_cache.snapshot() for hub in hubs]
            hits = sum(hub.remote_cache_hits for hub in hubs)
            forwarded = sum(hub.requests_forwarded for hub in hubs)
            lookups = sum(s["hits"] + s["misses"] for s in cache_stats)
            experiment.add_row(
                remote_fraction,
                cache_ttl,
                round(stats.fleet.messages_per_decision, 4),
                round(stats.fleet.decisions_per_sec, 1),
                forwarded,
                hits,
                round(sum(s["hits"] for s in cache_stats) / lookups, 3)
                if lookups
                else 0.0,
                sum(hub.remote_cache.fenced for hub in hubs),
                audit.stale_grants_in_window,
                audit.violation_count,
            )
            # Zero post-coherence-window stale grants, every cell.
            assert audit.violation_count == 0, (
                f"frac={remote_fraction} ttl={cache_ttl}: "
                f"{audit.violation_count} stale grants after the window"
            )
            if cache_ttl == 0.0:
                assert hits == 0
                baseline_msgs = stats.fleet.messages_per_decision
                baseline_forwarded = forwarded
                continue
            # Every cache-on cell strictly cuts the cross-domain
            # request traffic the cache exists to amortise...
            assert hits > 0, (
                f"frac={remote_fraction} ttl={cache_ttl}: cache never hit"
            )
            assert forwarded < baseline_forwarded, (
                f"frac={remote_fraction} ttl={cache_ttl}: caching did "
                "not cut forwarded requests"
            )
            # ...and a TTL covering the reuse distance cuts *total*
            # messages per decision vs the PR 4 (cache-off) federation
            # at every remote fraction.  (An undersized TTL can spend
            # its savings on drain fragmentation — the grid shows that
            # dial position rather than hiding it.)
            if cache_ttl == COVERING_TTL:
                assert (
                    stats.fleet.messages_per_decision < baseline_msgs
                ), (
                    f"frac={remote_fraction} ttl={cache_ttl}: caching "
                    "did not cut msgs/decision vs the cache-off baseline"
                )
    experiment.note(
        "every cell revokes the hot subject mid-run: all domains publish "
        "deny policies (authoritative change; PDPs are change-subscribed) "
        "and the registry pushes one record to each domain's coherence "
        "agent, which selectively invalidates its gateway's remote cache"
    )
    experiment.note(
        "violations counts grants of the revoked subject completing "
        f"later than {COHERENCE_WINDOW}s after the revocation; grants "
        "inside the window are the *priced* staleness (stale_in_window)"
    )
    experiment.show()


# -- E18d: directory service staleness ------------------------------------------------

#: Mid-run, *after* every domain's lookup cache has warmed the moving
#: resource — a transfer before first use would be resolved fresh and
#: show no staleness at all.
TRANSFER_AT = 0.15
DIRECTORY_TTLS = {"short": 0.01, "long": 10.0}


def run_directory_profile_row(
    directory_mode: str,
    directory_ttl: float = 0.02,
    subscribe: bool = False,
    remote_fraction: float = 0.5,
):
    """One profile row over a VO with a moving resource.

    ``res.dom0.0`` has identical permit-read policies published in
    *both* dom0 and dom1, so its decisions are routing-independent:
    the mid-run governance transfer can only move messages, never
    grants — which is what lets the profile assert grant parity against
    the in-process baseline while the misroute counters show where
    stale routing had to be repaired.
    """
    vo = build_federated_vo(
        directory_mode=directory_mode,
        directory_ttl=directory_ttl,
        subscribe=subscribe,
        moving_resource=True,
    )
    vo.network.loop.schedule(TRANSFER_AT, vo.transfer, label="e18d-transfer")
    stats = drive(vo.network, vo.peps_by_domain, remote_fraction)
    return vo.network, stats, vo.gateways, vo.clients


def test_e18d_directory_staleness_profile():
    """Priced directory staleness: misroutes repaired, grants untouched.

    The in-process directory (PR 4) is the instantly coherent baseline;
    the service rows pay lookup messages and, when their TTL'd caches
    go stale across the mid-run governance transfer, misroute requests
    to the old governing domain — where the serving gateway's
    authoritative re-check re-forwards them.  Grant counts must match
    the baseline exactly in every row: stale routing may move messages,
    never decisions.
    """
    experiment = Experiment(
        exp_id="E18d",
        title="Directory service staleness (2 domains, remote fraction "
        f"0.5, governance transfer at t={TRANSFER_AT}s)",
        paper_claim="the directory is the slow-changing, aggressively "
        "cacheable piece of shared knowledge; its staleness must "
        "degrade routing cost, not decision correctness",
        columns=[
            "directory",
            "msgs_per_decision",
            "lookup_msgs",
            "notices",
            "misroutes",
            "granted",
        ],
    )
    rows = [
        ("inproc", dict(directory_mode="inproc")),
        (
            "svc ttl=short",
            dict(
                directory_mode="service",
                directory_ttl=DIRECTORY_TTLS["short"],
            ),
        ),
        (
            "svc ttl=long",
            dict(
                directory_mode="service",
                directory_ttl=DIRECTORY_TTLS["long"],
            ),
        ),
        (
            "svc ttl=long+push",
            dict(
                directory_mode="service",
                directory_ttl=DIRECTORY_TTLS["long"],
                subscribe=True,
            ),
        ),
    ]
    results = {}
    for label, kwargs in rows:
        network, stats, hubs, clients = run_directory_profile_row(**kwargs)
        total = 2 * PEPS_PER_DOMAIN * EVENTS
        assert stats.fleet.completed == total, f"{label}: incomplete run"
        results[label] = (stats, hubs, network)
        experiment.add_row(
            label,
            round(stats.fleet.messages_per_decision, 4),
            network.metrics.sent_by_kind.get(LOOKUP_ACTION, 0),
            sum(client.transfer_notices for client in clients.values()),
            sum(hub.misroutes_detected for hub in hubs),
            stats.fleet.granted,
        )
    baseline_granted = results["inproc"][0].fleet.granted
    for label, (stats, hubs, network) in results.items():
        # The acceptance bar: identical grants in every directory tier.
        assert stats.fleet.granted == baseline_granted, (
            f"{label}: {stats.fleet.granted} grants vs in-process "
            f"baseline {baseline_granted} — staleness moved a decision"
        )
    # The stale (long-TTL, no-push) row really misrouted across the
    # transfer and the serving side repaired every one by re-forwarding.
    stale_stats, stale_hubs, _ = results["svc ttl=long"]
    assert sum(hub.misroutes_detected for hub in stale_hubs) > 0
    assert stale_stats.fleet.granted == baseline_granted
    # "Repaired" means repaired: in this full-mesh, TTL-budgeted
    # profile every detected misroute was re-forwarded, none failed
    # safe.
    for label, (stats, hubs, network) in results.items():
        assert sum(hub.misroutes_reforwarded for hub in hubs) == sum(
            hub.misroutes_detected for hub in hubs
        ), f"{label}: a detected misroute was not re-forwarded"
    # Push-patched caches converge without waiting out the TTL: fewer
    # misroutes than the pure-TTL row.
    push_hubs = results["svc ttl=long+push"][1]
    assert sum(hub.misroutes_detected for hub in push_hubs) <= sum(
        hub.misroutes_detected for hub in stale_hubs
    )
    experiment.note(
        "misroutes = forwarded requests whose serving gateway's "
        "authoritative re-check named another governing domain; every "
        "one is re-forwarded (never decided by the wrong tier), which "
        "is what keeps the grant column identical"
    )
    experiment.note(
        "the moving resource's policy exists identically in origin and "
        "destination domains, so grant parity isolates *routing* "
        "correctness; the unit suite pins the differing-policy case"
    )
    experiment.show()
