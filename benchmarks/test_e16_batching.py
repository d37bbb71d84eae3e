"""E16 — the batched decision fabric: batch size × replicas × load.

Paper claim (§3.2, communication performance): per-message overhead —
transport, XML processing and WS-Security — dominates the PEP→PDP hot
path at scale.  The fabric attacks it from two sides: the coalescing
queue amortises per-envelope cost over N requests, and the dispatcher
spreads envelopes over R PDP replicas.  The closed-loop driver holds a
fixed number of requests outstanding (offered load) and measures what
the fabric actually delivers: decisions/sec, messages per decision, and
p50/p95 submit→completion queueing latency.

The PDP service-time model (``envelope_overhead`` per message,
``decision_service_time`` per evaluation) is what makes this a
throughput experiment rather than a message-counting one: with it the
PDP is a FIFO server, so fewer envelopes mean less serialized busy time
and replicas mean real parallel capacity.

``REPRO_BENCH_SMOKE=1`` shrinks every sweep to a CI-sized single pass.
"""

import os
import random
from typing import Optional

from repro.bench import Experiment
from repro.components import (
    ComponentIdentity,
    DecisionDispatcher,
    LeastOutstandingRouting,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    RoundRobinRouting,
    RoutingPolicy,
)
from repro.simnet import INTRA_DOMAIN_LATENCY, Link, Network
from repro.workloads import drive_closed_loop
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

RESOURCES = 16
SUBJECTS = 200
EVENTS = 120 if SMOKE else 600
CONCURRENCIES = (8,) if SMOKE else (8, 64)
BATCH_SIZES = (1, 4) if SMOKE else (1, 8, 32)
REPLICA_COUNTS = (1, 2) if SMOKE else (1, 2, 4)

#: Simulated seconds of PDP work per envelope / per decision.
ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025
FLUSH_DELAY = 0.001


def publish_resource_policies(pap) -> None:
    for index in range(RESOURCES):
        pap.publish(
            Policy(
                policy_id=f"res-{index}-policy",
                target=subject_resource_action_target(
                    resource_id=f"res-{index}"
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


def build_fabric(
    batch: int,
    replicas: int,
    seed: int = 16,
    policy: Optional[RoutingPolicy] = None,
    secure: bool = False,
):
    network = Network(seed=seed)
    identities = {}
    if secure:
        keystore = KeyStore(seed=seed)
        ca = CertificateAuthority("e16-ca", keystore)

        def identity(name: str) -> ComponentIdentity:
            keypair = keystore.generate(label=name)
            return ComponentIdentity(
                name=name,
                keypair=keypair,
                certificate=ca.issue(name, keypair.public, 0.0, 1e9),
                keystore=keystore,
                validator=TrustValidator(keystore, anchors=[ca]),
            )

        identities = {
            name: identity(name)
            for name in ["pep"] + [f"pdp-{i}" for i in range(replicas)]
        }
    pap = PolicyAdministrationPoint("pap", network)
    publish_resource_policies(pap)
    pdps = [
        PolicyDecisionPoint(
            f"pdp-{i}",
            network,
            pap_address="pap",
            identity=identities.get(f"pdp-{i}"),
            config=PdpConfig(
                policy_cache_ttl=3600.0,
                envelope_overhead=ENVELOPE_OVERHEAD,
                decision_service_time=DECISION_SERVICE_TIME,
                require_signed_queries=secure,
            ),
        )
        for i in range(replicas)
    ]
    pep = PolicyEnforcementPoint(
        "pep",
        network,
        identity=identities.get("pep"),
        config=PepConfig(decision_cache_ttl=0.0, secure_channel=secure),
    )
    dispatcher = DecisionDispatcher(
        [pdp.name for pdp in pdps], policy=policy or LeastOutstandingRouting()
    )
    pep.enable_batching(
        max_batch=batch, max_delay=FLUSH_DELAY, dispatcher=dispatcher
    )
    # The fabric lives inside one domain: intra-domain latency between
    # the PEP, its PDP replicas and the PAP, so PDP service time (not
    # wide-area propagation) is the measured bottleneck.
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    for pdp in pdps:
        network.set_link("pep", pdp.name, local)
        network.set_link(pdp.name, "pap", local)
    return network, pep, pdps, dispatcher


def request_mix(count: int, seed: int = 7) -> list[RequestContext]:
    rng = random.Random(seed)
    return [
        RequestContext.simple(
            f"user-{rng.randrange(SUBJECTS)}",
            f"res-{rng.randrange(RESOURCES)}",
            "read" if rng.random() < 0.9 else "delete",
        )
        for _ in range(count)
    ]


def drive(pep, requests, concurrency):
    """One PEP's closed loop; returns the run's fleet summary."""
    return drive_closed_loop([pep], [requests], concurrency).fleet


def test_e16_batching_and_replication(benchmark):
    experiment = Experiment(
        exp_id="E16",
        title="Batched decision fabric: throughput and overhead vs "
        f"batch size × PDP replicas ({EVENTS} closed-loop requests)",
        paper_claim="per-message overhead dominates the PEP->PDP path; "
        "amortising it (batching) and parallelising it (replicas) raise "
        "decisions/sec and cut messages/decision",
        columns=[
            "concurrency",
            "batch",
            "replicas",
            "decisions_per_sec",
            "msgs_per_decision",
            "queue_p50_ms",
            "queue_p95_ms",
        ],
    )
    results = {}
    for concurrency in CONCURRENCIES:
        for batch in BATCH_SIZES:
            for replicas in REPLICA_COUNTS:
                network, pep, pdps, dispatcher = build_fabric(batch, replicas)
                stats = drive(pep, request_mix(EVENTS), concurrency)
                assert stats.completed == EVENTS, (
                    f"batch={batch} replicas={replicas}: only "
                    f"{stats.completed}/{EVENTS} completed"
                )
                # The fabric must not fail-safe its way to throughput.
                assert pep.fail_safe_denials == 0
                results[(concurrency, batch, replicas)] = stats
                experiment.add_row(
                    concurrency,
                    batch,
                    replicas,
                    round(stats.decisions_per_sec, 1),
                    round(stats.messages_per_decision, 3),
                    round(stats.queue_latency.p50 * 1000, 2),
                    round(stats.queue_latency.p95 * 1000, 2),
                )
    experiment.note(
        f"PDP service model: {ENVELOPE_OVERHEAD * 1000:.1f} ms/envelope + "
        f"{DECISION_SERVICE_TIME * 1000:.2f} ms/decision; flush delay "
        f"{FLUSH_DELAY * 1000:.1f} ms; decision cache off"
    )
    experiment.note(
        "msgs_per_decision counts every wire message (queries, replies, "
        "policy fetches) over completed decisions"
    )
    experiment.show()

    big = BATCH_SIZES[-1]
    for concurrency in CONCURRENCIES:
        baseline = results[(concurrency, 1, 1)]
        fabric = results[(concurrency, big, 2)]
        # The acceptance shape: batching + >=2 replicas strictly beats
        # the batch-1 single-PDP baseline on both axes at equal load.
        assert fabric.messages_per_decision < baseline.messages_per_decision
        assert fabric.decisions_per_sec > baseline.decisions_per_sec
        # Batching alone cuts messages/decision at every replica count.
        for replicas in REPLICA_COUNTS:
            assert (
                results[(concurrency, big, replicas)].messages_per_decision
                < results[(concurrency, 1, replicas)].messages_per_decision
            )
        # Replication alone raises throughput when the PDP is saturated.
        assert (
            results[(concurrency, 1, 2)].decisions_per_sec
            > results[(concurrency, 1, 1)].decisions_per_sec
        )

    benchmark(
        lambda: drive(
            build_fabric(BATCH_SIZES[-1], 2, seed=161)[1],
            request_mix(60, seed=8),
            concurrency=8,
        )
    )


def test_e16_dispatch_policies_balance_load():
    """Round-robin and least-outstanding both spread work; both failover."""
    experiment = Experiment(
        exp_id="E16b",
        title="Dispatcher policies over 3 replicas (one crashed mid-run)",
        paper_claim="replica load-balancing must survive decision-point "
        "crashes without failing open",
        columns=["policy", "decisions_per_replica", "failovers", "completed"],
    )
    for policy in (RoundRobinRouting(), LeastOutstandingRouting()):
        network, pep, pdps, dispatcher = build_fabric(
            4, 3, seed=162, policy=policy
        )
        requests = request_mix(90 if SMOKE else 240, seed=9)
        pdps[0].crash()
        stats = drive(pep, requests, concurrency=12)
        per_replica = [pdp.decisions_made for pdp in pdps]
        experiment.add_row(
            policy.name,
            str(per_replica),
            pep.coalescer.failovers,
            stats.completed,
        )
        assert stats.completed == len(requests)
        # The crashed replica served nothing; the survivors split the rest.
        assert per_replica[0] == 0
        assert per_replica[1] > 0 and per_replica[2] > 0
        assert pep.coalescer.failovers > 0
        assert pep.fail_safe_denials == 0
    experiment.show()


def test_e16_secure_batch_amortises_signatures():
    """One WS-Security signature per envelope: batch 16 vs batch 1."""
    experiment = Experiment(
        exp_id="E16c",
        title="Secure channel: WS-Security cost amortised by batching",
        paper_claim="signature/verification and header bytes are "
        "per-envelope; a batch pays them once for N requests",
        columns=[
            "batch",
            "decisions_per_sec",
            "msgs_per_decision",
            "bytes_per_decision",
        ],
    )
    events = 60 if SMOKE else 180
    measured = {}
    for batch in (1, 16):
        network, pep, pdps, dispatcher = build_fabric(
            batch, 1, seed=163, secure=True
        )
        bytes_before = network.metrics.bytes_sent
        stats = drive(pep, request_mix(events, seed=10), concurrency=16)
        assert stats.completed == events
        assert pep.fail_safe_denials == 0
        bytes_per_decision = (
            network.metrics.bytes_sent - bytes_before
        ) / stats.completed
        measured[batch] = (stats, bytes_per_decision)
        experiment.add_row(
            batch,
            round(stats.decisions_per_sec, 1),
            round(stats.messages_per_decision, 3),
            round(bytes_per_decision),
        )
    experiment.note("signed queries required by the PDPs; responses signed")
    experiment.show()
    small, small_bytes = measured[1]
    large, large_bytes = measured[16]
    assert large.messages_per_decision < small.messages_per_decision
    assert large_bytes < small_bytes
    assert large.decisions_per_sec > small.decisions_per_sec
