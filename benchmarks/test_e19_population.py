"""E19 — million-subject scale: sharded placement vs stateless replicas.

North-star claim (paper §1: "scalability to millions of users"): at
small scale a PDP replica is stateless compute, but at 10^6 subjects
the *state* — who holds which subject's attributes — becomes the
scaling axis.  The placement layer shards it: a consistent-hash ring
over the replicas, ``hash-subject`` client routing, and per-replica
attribute partitions that fault owned keys in lazily from the
population's authoritative resolver.

The population generator keeps the sweep honest at 10^6: subjects are
derived on demand (O(log n) each) from an implicit org tree, activity
is Zipf-skewed, and nothing population-sized is ever materialised — so
the 10^4 and 10^6 tiers run the same code at the same cost per event.

Reported per tier and mode: decisions/sec (must stay flat as subjects
grow — the state axis must not leak into throughput), per-replica
materialised state cardinality (sharded: ~1/N of the touched keys,
no duplication; unsharded: hot keys duplicated on every replica that
saw them), and sharded-vs-unsharded decision mismatches (pinned 0).

``REPRO_BENCH_SMOKE=1`` shrinks the event counts to a CI-sized pass —
the subject tiers stay, because streaming makes 10^6 subjects cheap.
"""

import os

from repro.bench import Experiment
from repro.components import (
    ConsistentHashRouting,
    DecisionDispatcher,
    LeastOutstandingRouting,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import INTRA_DOMAIN_LATENCY, Link, Network
from repro.workloads import Population, PopulationSpec, drive_closed_loop

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

SUBJECT_TIERS = (10_000, 1_000_000) if SMOKE else (
    10_000, 100_000, 1_000_000
)
#: Wide, lightly skewed resource axis: identical (subject, resource,
#: action) triples — which the coalescing queue dedups — stay rare at
#: every subject tier, so the sweep measures the subject-state axis
#: rather than tier-dependent dedup luck.
RESOURCES = 1_000
RESOURCE_SKEW = 0.5
EVENTS_PER_PEP = 240 if SMOKE else 900
PEPS = 2
REPLICAS = 4
CONCURRENCY = 32
#: Per-PEP coalescing batch.  Sharded flushes split into one envelope
#: per owning replica, so the batch is sized at replicas x 8: fragments
#: still amortise the envelope overhead about as well as the unsharded
#: baseline's whole-batch envelope does.
BATCH = 8 * REPLICAS

#: Simulated seconds of PDP work per envelope / per decision (the E16
#: service model, so decisions/sec measures capacity, not messages).
ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025
FLUSH_DELAY = 0.001

#: Throughput drift tolerated across subject tiers at fixed load.
FLATNESS = 0.15


def build_tier(subjects: int, sharded: bool, seed: int = 19):
    """One decision tier over a ``subjects``-sized population.

    ``sharded=True``: one shared ring, ``hash-subject`` dispatch, each
    replica owning its hash range.  ``sharded=False``: the stateless
    baseline — least-outstanding dispatch, every replica willing to
    hold any subject's state (modelled as a private single-replica
    ring, so whatever it sees it retains, and hot keys duplicate).
    """
    network = Network(seed=seed)
    population = Population(
        PopulationSpec(
            subjects=subjects,
            resources=RESOURCES,
            resource_skew=RESOURCE_SKEW,
        )
    )
    names = [f"pdp-{index}" for index in range(REPLICAS)]
    shared = PlacementSpec("subject", PlacementMap(names))
    pdps = []
    for name in names:
        placement = shared if sharded else PlacementSpec(
            "subject", PlacementMap([name])
        )
        pdp = PolicyDecisionPoint(
            name,
            network,
            config=PdpConfig(
                placement=placement,
                envelope_overhead=ENVELOPE_OVERHEAD,
                decision_service_time=DECISION_SERVICE_TIME,
            ),
            attribute_resolver=population.attribute_resolver(),
        )
        for policy in population.policy_set():
            pdp.add_local_policy(policy)
        pdps.append(pdp)
    peps = []
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    for index in range(PEPS):
        pep = PolicyEnforcementPoint(
            f"pep-{index}",
            network,
            config=PepConfig(decision_cache_ttl=0.0),
        )
        dispatcher = DecisionDispatcher(
            names,
            policy=(
                ConsistentHashRouting(shared)
                if sharded
                else LeastOutstandingRouting()
            ),
        )
        pep.enable_batching(
            max_batch=BATCH, max_delay=FLUSH_DELAY, dispatcher=dispatcher
        )
        for name in names:
            network.set_link(pep.name, name, local)
        peps.append(pep)
    for name in names:
        for other in names:
            if name != other:
                network.set_link(name, other, local)
    return network, population, shared, pdps, peps


def run_tier(subjects: int, sharded: bool, seed: int = 19):
    """Drive one tier closed-loop; returns (run, decision map, state)."""
    network, population, spec, pdps, peps = build_tier(
        subjects, sharded, seed=seed
    )
    requests = [
        list(population.request_contexts(EVENTS_PER_PEP, seed=index))
        for index in range(PEPS)
    ]
    decisions: dict[tuple, bool] = {}

    def observer(pep, request, result) -> None:
        key = (request.subject_id, request.resource_id, request.action_id)
        previous = decisions.get(key)
        assert previous is None or previous == result.granted, (
            f"non-deterministic decision for {key}"
        )
        decisions[key] = result.granted

    run = drive_closed_loop(
        peps, requests, CONCURRENCY, horizon=600.0, observer=observer
    )
    assert run.fleet.completed == EVENTS_PER_PEP * PEPS
    touched = {
        request.subject_id for stream in requests for request in stream
    }
    cardinalities = [pdp.partition.cardinality for pdp in pdps]
    state = {
        "touched": len(touched),
        "per_replica": cardinalities,
        "max": max(cardinalities),
        "fleet": sum(cardinalities),
        "misrouted": network.metrics.counters["placement.misrouted"],
    }
    return run, decisions, state


def test_e19_sharded_scale_sweep():
    experiment = Experiment(
        exp_id="E19",
        title="Sharded placement vs stateless replicas at 10^4..10^6 "
        f"subjects ({EVENTS_PER_PEP * PEPS} closed-loop requests/tier)",
        paper_claim="scalability to millions of users: partitioning "
        "subject state across a consistent-hash ring keeps per-replica "
        "state at ~1/N without changing any decision or costing "
        "throughput",
        columns=[
            "subjects",
            "mode",
            "decisions_per_sec",
            "queue_p95_ms",
            "max_replica_state",
            "fleet_state",
            "touched_subjects",
            "mismatches",
        ],
    )
    throughput: dict[str, list[float]] = {"sharded": [], "unsharded": []}
    for subjects in SUBJECT_TIERS:
        sharded_run, sharded_decisions, sharded_state = run_tier(
            subjects, sharded=True
        )
        unsharded_run, unsharded_decisions, unsharded_state = run_tier(
            subjects, sharded=False
        )
        assert set(sharded_decisions) == set(unsharded_decisions)
        mismatches = sum(
            1
            for key, granted in sharded_decisions.items()
            if unsharded_decisions[key] != granted
        )
        for run, state, mode, decided in (
            (sharded_run, sharded_state, "sharded", sharded_decisions),
            (unsharded_run, unsharded_state, "unsharded", unsharded_decisions),
        ):
            throughput[mode].append(run.fleet.decisions_per_sec)
            experiment.add_row(
                subjects,
                mode,
                round(run.fleet.decisions_per_sec, 1),
                round(run.fleet.queue_latency.p95 * 1000, 2),
                state["max"],
                state["fleet"],
                state["touched"],
                mismatches,
            )
        # The acceptance shape, per tier:
        assert mismatches == 0
        # Sharded: clean partition of exactly the touched keys — no
        # replica duplicates state, no slot was ever misrouted, and the
        # hot range stays well under a full-state replica's load.
        assert sharded_state["misrouted"] == 0
        assert sharded_state["fleet"] == sharded_state["touched"]
        assert sharded_state["max"] <= 0.45 * sharded_state["touched"]
        # Unsharded: every replica retains whatever it happened to
        # serve, so the fleet materialises hot keys more than once.
        assert unsharded_state["fleet"] > unsharded_state["touched"]
        # Key-affinity routing pays for Zipf traffic skew: the rank-1
        # subject alone is ~13% of the stream, so its owner serves
        # ~40% of all decisions while least-outstanding spreads that
        # head evenly — and the stateless baseline also gets its
        # attribute state for free from the in-process resolver.  The
        # tax must stay a bounded constant (the claim under test is
        # that *state* scales, not that hashing beats load-balanced
        # dispatch on throughput at saturation).
        assert (
            sharded_run.fleet.decisions_per_sec
            >= unsharded_run.fleet.decisions_per_sec * 0.3
        )
    # Decisions/sec stays flat as the population grows 100x: the state
    # axis scales without leaking into the request path.
    for mode, series in throughput.items():
        drift = (max(series) - min(series)) / max(series)
        assert drift <= FLATNESS, (
            f"{mode}: decisions/sec drifted {drift:.1%} across "
            f"{SUBJECT_TIERS}"
        )
    experiment.note(
        f"{REPLICAS} replicas x {PEPS} PEPs, batch {BATCH}, concurrency "
        f"{CONCURRENCY}/PEP; PDP service model "
        f"{ENVELOPE_OVERHEAD * 1000:.1f} ms/envelope + "
        f"{DECISION_SERVICE_TIME * 1000:.2f} ms/decision"
    )
    experiment.note(
        "state figures are materialised attribute-partition keys; the "
        "population resolver is authoritative, so sharded fleet state "
        "== distinct subjects touched (no duplication) while the "
        "unsharded fleet re-materialises hot subjects per replica"
    )
    experiment.show()


def test_e19_rebalance_under_stale_routing():
    """Replica join mid-workload: moved keys are bounded, stale-view
    misroutes are reforwarded, and no decision changes."""
    experiment = Experiment(
        exp_id="E19b",
        title="Replica join at half-time with a stale client view",
        paper_claim="rebalancing moves ~1/(N+1) of the keys and "
        "misrouted decisions are reforwarded to their owner, never "
        "answered wrong",
        columns=[
            "phase",
            "replicas",
            "moved_keys",
            "misrouted",
            "reforwarded",
            "mismatches",
        ],
    )
    subjects = SUBJECT_TIERS[0]
    network, population, spec, pdps, peps = build_tier(
        subjects, sharded=True, seed=23
    )
    # Clients route via snapshots that will go stale at the join.
    for pep in peps:
        pep.dispatcher.routing.placement = spec.routing_view()
    events = EVENTS_PER_PEP // 2
    streams = [
        list(population.request_contexts(events, seed=10 + index))
        for index in range(PEPS)
    ]
    decisions: dict[tuple, bool] = {}
    mismatches = 0

    def observer(pep, request, result) -> None:
        nonlocal mismatches
        key = (request.subject_id, request.resource_id, request.action_id)
        previous = decisions.get(key)
        if previous is not None and previous != result.granted:
            mismatches += 1
        decisions[key] = result.granted

    metrics = network.metrics
    run = drive_closed_loop(
        peps, streams, CONCURRENCY, horizon=600.0, observer=observer
    )
    assert run.fleet.completed == events * PEPS
    before = sum(pdp.partition.cardinality for pdp in pdps)
    experiment.add_row(
        "before-join",
        len(spec.ring),
        0,
        metrics.counters["placement.misrouted"],
        metrics.counters["placement.reforwarded"],
        mismatches,
    )
    assert metrics.counters["placement.misrouted"] == 0

    joined = PolicyDecisionPoint(
        f"pdp-{REPLICAS}",
        network,
        config=PdpConfig(
            placement=spec,
            envelope_overhead=ENVELOPE_OVERHEAD,
            decision_service_time=DECISION_SERVICE_TIME,
        ),
        attribute_resolver=population.attribute_resolver(),
    )
    for policy in population.policy_set():
        joined.add_local_policy(policy)
    for pdp in pdps:
        network.set_link(joined.name, pdp.name, Link(latency=INTRA_DOMAIN_LATENCY))
    for pep in peps:
        network.set_link(pep.name, joined.name, Link(latency=INTRA_DOMAIN_LATENCY))
    spec.ring.add_replica(joined.name)
    pdps.append(joined)
    moved = sum(pdp.rebalance_placement() for pdp in pdps)
    # Consistent hashing: the join claims roughly 1/(N+1) of the keys.
    assert 0 < moved < before / 2
    # Same requests again through the *stale* client views: the old
    # owners reforward the moved keys' slots; decisions must not move.
    rerun = drive_closed_loop(
        peps, streams, CONCURRENCY, horizon=600.0, observer=observer
    )
    assert rerun.fleet.completed == events * PEPS
    experiment.add_row(
        "after-join",
        len(spec.ring),
        moved,
        metrics.counters["placement.misrouted"],
        metrics.counters["placement.reforwarded"],
        mismatches,
    )
    assert metrics.counters["placement.misrouted"] > 0
    assert metrics.counters["placement.reforwarded"] > 0
    assert metrics.counters["placement.reforward_fallback"] == 0
    assert mismatches == 0
    # Every partition again holds only what it owns.
    for pdp in pdps:
        assert all(pdp.partition.owns(key) for key in pdp.partition.keys())
    experiment.note(
        f"population {subjects} subjects; join moved {moved} of "
        f"{before} materialised keys; client views left stale on "
        "purpose so the reforward path carries the moved range"
    )
    experiment.show()
