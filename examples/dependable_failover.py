#!/usr/bin/env python3
"""Dependability: PDP replication, failover and quorum under faults.

The paper's title promises *dependable* access control; this example
shows the repo's three mechanisms working against injected crashes:

1. a single-PDP domain failing **safe** (denying) during an outage;
2. a 3-replica cluster with heartbeat failover riding through the same
   outage with no user-visible denial;
3. quorum voting out-voting a corrupted replica that answers Permit to
   everything.

Run:  python examples/dependable_failover.py
"""

from repro.core import AccessControlSystem, QuorumClient, SystemConfig
from repro.core.dependability import PdpCluster
from repro.domain import build_federation
from repro.simnet import FailureInjector, Network
from repro.wss import KeyStore
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)


def payroll_policy() -> Policy:
    return Policy(
        policy_id="payroll-policy",
        rules=(
            permit_rule(
                "hr-only", subject_resource_action_target(subject_id="hr-user")
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="payroll"),
    )


def probe(system, network, label, probes=10, period=0.5):
    granted = denied = 0
    for _ in range(probes):
        network.run(until=network.now + period)
        if system.authorize("hr-user", "payroll", "read").granted:
            granted += 1
        else:
            denied += 1
    print(f"  {label}: {granted} granted / {denied} fail-safe denied")
    return granted


def main() -> None:
    # --- 1. single PDP: outage -> fail-safe denial --------------------------
    network = Network(seed=3)
    keystore = KeyStore(seed=3)
    vo, _ = build_federation("corp", ["solo"], network, keystore)
    solo = AccessControlSystem(vo.domain("solo"))
    solo.protect("payroll")
    solo.publish_policy(payroll_policy())
    print("single PDP, crash at t+1s for 3s:")
    injector = FailureInjector(network, seed=3)
    injector.crash_for(vo.domain("solo").pdp.name, at=network.now + 1.0, duration=3.0)
    probe(solo, network, "during crash window")
    print(f"  (fail-safe denials recorded: {solo.stats()['fail_safe_denials']})")

    # --- 2. replicated PDPs: the same fault is absorbed ----------------------
    network2 = Network(seed=4)
    keystore2 = KeyStore(seed=4)
    vo2, _ = build_federation("corp", ["replicated"], network2, keystore2)
    replicated = AccessControlSystem(
        vo2.domain("replicated"),
        config=SystemConfig(pdp_replicas=3, heartbeat_period=0.25),
    )
    replicated.protect("payroll")
    replicated.publish_policy(payroll_policy())
    print("\n3 PDP replicas, same crash on the primary:")
    injector2 = FailureInjector(network2, seed=4)
    injector2.crash_for(
        replicated.cluster.addresses[0], at=network2.now + 1.0, duration=3.0
    )
    granted = probe(replicated, network2, "during crash window")
    print(
        f"  queries routed past the crashed primary: "
        f"{replicated.dispatcher.routing.passed_over}, "
        f"availability {granted}/10"
    )

    # --- 3. quorum voting vs a corrupted replica -----------------------------
    network3 = Network(seed=5)
    keystore3 = KeyStore(seed=5)
    vo3, _ = build_federation("corp", ["quorum"], network3, keystore3)
    domain3 = vo3.domain("quorum")
    domain3.pap.publish(payroll_policy())
    cluster = PdpCluster(domain3, replicas=3)
    corrupt = cluster.replicas[1]
    corrupt.pap_address = None  # stops following the real policy...
    corrupt.add_local_policy(    # ...and permits everything instead.
        Policy(policy_id="backdoor", rules=(permit_rule("open"),))
    )
    client = QuorumClient("qc", network3, cluster.addresses, quorum=3)
    print("\nquorum of 3 with one corrupted (permit-everything) replica:")
    for subject in ("hr-user", "intruder"):
        outcome = client.evaluate(RequestContext.simple(subject, "payroll", "read"))
        flag = " [disagreement detected]" if outcome.disagreement else ""
        print(
            f"  {subject:>8}: votes={outcome.votes} -> "
            f"{outcome.decision.value}{flag}"
        )


if __name__ == "__main__":
    main()
