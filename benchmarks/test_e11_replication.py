"""E11 — dependability: PDP replication, failover and quorum voting.

Paper claim (title + §3.2): the access control system itself must be
dependable — the PDP is the single point of failure of the pull model.
Replication with heartbeat-ordered failover should raise decision
availability with replica count under crash faults; quorum voting should mask a
corrupted replica without ever granting unauthorised access.
"""

import math

from repro.bench import Experiment
from repro.core import AccessControlSystem, QuorumClient, SystemConfig
from repro.core.dependability import PdpCluster
from repro.domain import build_federation
from repro.simnet import FailureInjector, Network
from repro.wss import KeyStore
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

def vote(network, client, request):
    """One quorum evaluation, the loop run until its outcome lands."""
    outcomes = []
    client.evaluate(request, outcomes.append)
    network.loop.run_until(outcomes.__len__, math.inf)
    return outcomes[0]


PROBES = 40
PROBE_PERIOD = 0.5
HORIZON = PROBES * PROBE_PERIOD


def db_policy():
    return Policy(
        policy_id="db-policy",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="db"),
    )


def run_with_replicas(replicas, seed=11):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation("vo", ["acme"], network, keystore)
    domain = vo.domain("acme")
    system = AccessControlSystem(
        domain,
        config=SystemConfig(
            pdp_replicas=replicas,
            heartbeat_period=0.25,
            heartbeat_miss_threshold=2,
        ),
    )
    system.protect("db")
    system.publish_policy(db_policy())
    injector = FailureInjector(network, seed=seed)
    if system.cluster is not None:
        addresses = system.cluster.addresses
    else:
        addresses = [domain.pdp.name]
    injector.random_crash_process(
        addresses, horizon=HORIZON, mtbf=6.0, mttr=3.0, start=1.0
    )
    ok = 0
    wrong_grants = 0
    for _ in range(PROBES):
        network.run(until=network.now + PROBE_PERIOD)
        if system.authorize("alice", "db", "read").granted:
            ok += 1
        if system.authorize("eve", "db", "read").granted:
            wrong_grants += 1
    return ok / PROBES, wrong_grants


def test_e11_replication_availability(benchmark):
    experiment = Experiment(
        exp_id="E11a",
        title="Decision availability vs PDP replica count under crash faults",
        paper_claim="availability rises with replication; heartbeat "
        "detection only orders the replica ring — an undetected crash "
        "costs one pdp_timeout, then the dispatcher fails over; never "
        "fails open",
        columns=["replicas", "availability", "unauthorised_grants"],
    )
    results = {}
    for replicas in (1, 2, 3, 5):
        availability, wrong = run_with_replicas(replicas)
        results[replicas] = availability
        experiment.add_row(replicas, round(availability, 3), wrong)
        assert wrong == 0  # fail-safe: faults never open the gate
    experiment.note(
        f"crash process: mtbf=6 s, mttr=3 s over {HORIZON:.0f} s of probing"
    )
    experiment.show()

    # Shape: replication helps substantially; 3 replicas near-perfect.
    assert results[3] > results[1]
    assert results[5] >= results[3] - 0.05
    assert results[3] >= 0.9

    # Benchmark: one replicated decision in steady state.
    network = Network(seed=111)
    keystore = KeyStore(seed=111)
    vo = build_federation("vo", ["acme"], network, keystore)
    system = AccessControlSystem(
        vo.domain("acme"), config=SystemConfig(pdp_replicas=3)
    )
    system.protect("db")
    system.publish_policy(db_policy())
    benchmark(lambda: system.authorize("alice", "db", "read"))


def test_e11_quorum_masks_corrupt_replica(benchmark):
    network = Network(seed=112)
    keystore = KeyStore(seed=112)
    vo = build_federation("vo", ["acme"], network, keystore)
    domain = vo.domain("acme")
    domain.pap.publish(db_policy())
    cluster = PdpCluster(domain, replicas=3)

    # Corrupt one replica: it answers Permit to everything (the dangerous
    # direction — an attacker-controlled decision point).
    corrupt = cluster.replicas[2]
    corrupt.pap_address = None
    corrupt.add_local_policy(
        Policy(policy_id="evil-allow", rules=(permit_rule("open-sesame"),))
    )

    client = QuorumClient("qc", network, cluster.addresses, quorum=3)
    legit = vote(network, client, RequestContext.simple("alice", "db", "read"))
    attack = vote(network, client, RequestContext.simple("eve", "db", "read"))

    experiment = Experiment(
        exp_id="E11b",
        title="Quorum voting with one corrupted replica (of 3)",
        paper_claim="majority voting masks a wrong decision point; "
        "disagreement is detected and surfaced",
        columns=["request", "votes", "decision", "disagreement_flagged"],
    )
    experiment.add_row(
        "alice (authorised)", str(legit.votes), legit.decision.value,
        legit.disagreement,
    )
    experiment.add_row(
        "eve via corrupt replica", str(attack.votes), attack.decision.value,
        attack.disagreement,
    )
    experiment.show()

    assert legit.decision is Decision.PERMIT
    assert attack.decision is Decision.DENY  # majority out-votes the corrupt one
    assert attack.disagreement  # and the disagreement is visible for audit

    benchmark(
        lambda: vote(network, client, RequestContext.simple("alice", "db", "read"))
    )
