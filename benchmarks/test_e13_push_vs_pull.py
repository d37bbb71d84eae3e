"""E13 — §2.2: push vs pull head-to-head (message economics).

Paper claim: the two architectures have "different trust relationships
and interactions"; push pays two messages once per client to mint a
capability and nothing per access, pull pays a PEP→PDP round-trip per
access (unless the PEP caches).  The crossover therefore falls at
one access per client: any re-use favours push.
"""

from repro.bench import Experiment
from repro.capability import (
    CapabilityEnforcer,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
from repro.components import PepConfig
from repro.core import ClientAgent, push_sequence
from repro.domain import TrustKind, build_federation
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Category,
    Policy,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)

CLIENTS = 5
ACCESS_SWEEP = (1, 2, 5, 10)


def community_policy():
    return Policy(
        policy_id="dataset-policy",
        rules=(
            permit_rule(
                "analysts",
                condition=attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string("analyst")
                ),
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="dataset"),
    )


def run_pull(accesses_per_client, cache_ttl=0.0, seed=13):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation("vo", ["host"], network, keystore)
    host = vo.domain("host")
    for index in range(CLIENTS):
        host.new_subject(f"user-{index}", role=["analyst"])
    host.pap.publish(community_policy())
    resource = host.expose_resource(
        "dataset", pep_config=PepConfig(decision_cache_ttl=cache_ttl)
    )
    before = network.metrics.messages_sent
    for index in range(CLIENTS):
        for _ in range(accesses_per_client):
            result = resource.pep.authorize_simple(f"user-{index}", "dataset", "read")
            assert result.granted
    return network.metrics.messages_sent - before


def run_push(accesses_per_client, seed=13):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation(
        "vo", ["host"], network, keystore, kinds=(TrustKind.CAPABILITY,)
    )
    host = vo.domain("host")
    cas_identity = host.component_identity("cas.vo")
    cas = CommunityAuthorizationService(
        "cas.vo", network, "host", cas_identity, vo_name="vo"
    )
    cas.add_policy(community_policy())
    for index in range(CLIENTS):
        cas.set_subject_attribute(f"user-{index}", SUBJECT_ROLE, ["analyst"])
    resource = host.expose_resource("dataset")
    verifier = CapabilityVerifier(host)
    enforcer = CapabilityEnforcer(resource.pep, verifier)
    before = network.metrics.messages_sent
    for index in range(CLIENTS):
        client = ClientAgent(f"client-{index}", network, f"user-{index}")
        capability = None
        for _ in range(accesses_per_client):
            trace, capability = push_sequence(
                client, "cas.vo", enforcer, "dataset", "read",
                reuse_capability=capability,
            )
            assert trace.result.granted
    return network.metrics.messages_sent - before


def test_e13_push_vs_pull_crossover(benchmark):
    experiment = Experiment(
        exp_id="E13",
        title="Push vs pull: total messages for K accesses by each of "
        f"{CLIENTS} clients",
        paper_claim="push amortises the capability over re-use; pull pays "
        "per access; a PEP decision cache closes the gap for repeats",
        columns=[
            "accesses_per_client",
            "push_msgs",
            "pull_msgs",
            "pull_cached_msgs",
            "push_msgs_per_access",
            "pull_msgs_per_access",
        ],
    )
    results = {}
    for accesses in ACCESS_SWEEP:
        push_messages = run_push(accesses)
        pull_messages = run_pull(accesses)
        pull_cached = run_pull(accesses, cache_ttl=3600.0)
        total = CLIENTS * accesses
        results[accesses] = (push_messages, pull_messages, pull_cached)
        experiment.add_row(
            accesses,
            push_messages,
            pull_messages,
            pull_cached,
            round(push_messages / total, 2),
            round(pull_messages / total, 2),
        )
    experiment.note(
        "pull includes the PDP's one-time PAP fetch; push includes the "
        "2-message capability issue per client"
    )
    experiment.show()

    # Shape 1: push is flat in K — the capability is minted once per
    # client and every access after that is local validation.
    assert results[10][0] == results[1][0]
    # Shape 2: plain pull grows linearly in K (a PEP->PDP round-trip per
    # access).
    assert results[1][1] < results[5][1] < results[10][1]
    # Shape 3: a PEP decision cache flattens pull back to per-client cost.
    assert results[10][2] == results[1][2]
    for accesses in (2, 5, 10):
        push_messages, pull_messages, pull_cached = results[accesses]
        assert push_messages < pull_messages
        assert pull_cached < pull_messages
    # Shape 4: even at K=1 push costs fewer messages here because the CAS
    # resolves subject attributes *at issue time* from its community
    # registry, while the pull PDP pays PIP round-trips per subject — the
    # "different interactions" the paper attributes to the two models.
    assert results[1][0] <= results[1][1]

    benchmark(lambda: run_push(5, seed=131))
