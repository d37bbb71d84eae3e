"""E6 — §3.2 Communication Performance: decision caching and staleness.

Paper claim: "Caching can significantly reduce the number of messages
that are exchanged between components of the access control system but
... information stored in the cache memory may not be up-to-date which
may result in false positive or false negative access control decisions.
This problem can be minimised by introducing time constraints on validity
of locally cached copies."

The experiment sweeps the PEP decision-cache TTL over a Zipf-skewed
request stream, then revokes a permission mid-stream and counts
stale permits (false positives) until the TTL washes them out.
"""

from repro.bench import Experiment
from repro.components import PepConfig
from repro.domain import build_federation
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Policy,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

TTL_SWEEP = (0.0, 5.0, 30.0, 120.0)
REQUESTS = 150
REQUEST_PERIOD = 0.5  # one request every 0.5 simulated seconds


def build(ttl, seed=6):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation("corp", ["hq"], network, keystore)
    hq = vo.domain("hq")
    hq.pap.publish(
        Policy(
            policy_id="db-policy",
            rules=(
                permit_rule(
                    "alice", subject_resource_action_target(subject_id="alice")
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="db"),
        )
    )
    resource = hq.expose_resource(
        "db", pep_config=PepConfig(decision_cache_ttl=ttl)
    )
    return network, hq, resource


def run_with_ttl(ttl, invalidation_push=False):
    network, hq, resource = build(ttl)
    if invalidation_push:
        resource.pep.subscribe_to_policy_changes(hq.pap.name)
        hq.pdp.subscribe_to_policy_changes()
    revoke_at_request = REQUESTS // 2
    stale_permits = 0
    messages_before = network.metrics.messages_sent
    for index in range(REQUESTS):
        if index == revoke_at_request:
            # Administrator replaces the policy: alice loses access.  PDP
            # policy cache is refreshed; the PEP decision cache is NOT
            # (that is precisely the staleness the paper warns about) —
            # unless invalidation push is on, in which case the PAP's
            # change notification clears both caches by itself.
            hq.pap.publish(
                Policy(
                    policy_id="db-policy",
                    rules=(deny_rule("all"),),
                    target=subject_resource_action_target(resource_id="db"),
                )
            )
            if not invalidation_push:
                hq.pdp.invalidate_policy_cache()
        result = resource.pep.authorize_simple("alice", "db", "read")
        if index >= revoke_at_request and result.granted:
            stale_permits += 1
        network.run(until=network.now + REQUEST_PERIOD)
    messages = network.metrics.messages_sent - messages_before
    stats = resource.pep.decision_cache.stats
    return {
        "ttl": ttl,
        "messages": messages,
        "hit_ratio": stats.hit_ratio,
        "stale_permits": stale_permits,
    }


def test_e6_decision_caching(benchmark):
    rows = [run_with_ttl(ttl) for ttl in TTL_SWEEP]
    push_row = run_with_ttl(120.0, invalidation_push=True)

    experiment = Experiment(
        exp_id="E6",
        title="PEP decision caching: savings vs staleness",
        paper_claim="caching slashes authorisation messages; stale entries "
        "produce false permits bounded by the TTL window",
        columns=["cache_ttl_s", "messages", "hit_ratio", "stale_permits_after_revoke"],
    )
    for row in rows:
        experiment.add_row(
            row["ttl"], row["messages"], round(row["hit_ratio"], 3), row["stale_permits"]
        )
    experiment.add_row(
        "120 + invalidation push",
        push_row["messages"],
        round(push_row["hit_ratio"], 3),
        push_row["stale_permits"],
    )
    experiment.note(
        f"{REQUESTS} requests at {1 / REQUEST_PERIOD}/s; permission revoked "
        f"after request {REQUESTS // 2}"
    )
    experiment.show()

    by_ttl = {row["ttl"]: row for row in rows}
    # Shape 1: messages fall monotonically with TTL.
    message_counts = [row["messages"] for row in rows]
    assert message_counts == sorted(message_counts, reverse=True)
    # Shape 2: no cache -> zero stale permits; larger TTLs -> more stale
    # permits, bounded by TTL / request period.
    assert by_ttl[0.0]["stale_permits"] == 0
    assert by_ttl[120.0]["stale_permits"] > by_ttl[5.0]["stale_permits"]
    for ttl in (5.0, 30.0):
        assert by_ttl[ttl]["stale_permits"] <= ttl / REQUEST_PERIOD + 1
    # Shape 3: hit ratio grows with TTL.
    assert by_ttl[120.0]["hit_ratio"] > by_ttl[5.0]["hit_ratio"] > 0
    # Shape 4 (mitigation): invalidation push keeps the big-TTL cache's
    # message savings while eliminating the stale-permit window (at most
    # the single in-flight request can slip through).
    assert push_row["stale_permits"] <= 1
    assert push_row["messages"] < by_ttl[5.0]["messages"]

    # Benchmark: a cache-hit authorisation (the cheap path caching buys).
    network, hq, resource = build(ttl=3600.0, seed=66)
    resource.pep.authorize_simple("alice", "db", "read")
    benchmark(lambda: resource.pep.authorize_simple("alice", "db", "read"))
