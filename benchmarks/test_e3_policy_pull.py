"""E3 — Fig. 3: the policy-issuing (pull) security architecture.

Paper claim (Fig. 3, §2.2): four steps — (I) access request intercepted
by the PEP, (II) authorisation decision query to the PDP, (III) decision
response (with obligations), (IV) enforcement.  The client stays oblivious
to authorisation; every access costs a PEP→PDP round-trip unless cached.
"""

from repro.bench import Experiment
from repro.components import PepConfig
from repro.core import ClientAgent, pull_sequence
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


def build(seed=3, cache_ttl=0.0):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation("corp", ["hq"], network, keystore)
    hq = vo.domain("hq")
    hq.pap.publish(
        Policy(
            policy_id="db-policy",
            rules=(
                permit_rule(
                    "alice-read",
                    subject_resource_action_target(
                        subject_id="alice", action_id="read"
                    ),
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="db"),
        )
    )
    resource = hq.expose_resource(
        "db", pep_config=PepConfig(decision_cache_ttl=cache_ttl)
    )
    return network, hq, resource


def test_e3_policy_pull_flow(benchmark):
    network, hq, resource = build()
    client = ClientAgent("client.alice", network, "alice")

    cold = pull_sequence(client, resource.pep, "db", "read")
    warm = pull_sequence(client, resource.pep, "db", "read")
    denied = pull_sequence(
        ClientAgent("client.eve", network, "eve"), resource.pep, "db", "read"
    )

    network_cached, _, resource_cached = build(seed=33, cache_ttl=120.0)
    client_cached = ClientAgent("client.alice", network_cached, "alice")
    pull_sequence(client_cached, resource_cached.pep, "db", "read")
    cached = pull_sequence(client_cached, resource_cached.pep, "db", "read")

    experiment = Experiment(
        exp_id="E3",
        title="Policy-issuing (pull) flow (Fig. 3)",
        paper_claim="client oblivious; PEP queries PDP per access; "
        "decision caching removes the round-trip",
        columns=["phase", "steps", "network_messages", "bytes", "outcome"],
    )
    experiment.add_row(
        "cold (PDP fetches policies from PAP)",
        "->".join(cold.step_numbers()),
        cold.messages_used,
        cold.bytes_used,
        cold.result.decision.value,
    )
    experiment.add_row(
        "warm (policies cached at PDP)",
        "->".join(warm.step_numbers()),
        warm.messages_used,
        warm.bytes_used,
        warm.result.decision.value,
    )
    experiment.add_row(
        "denied subject",
        "->".join(denied.step_numbers()),
        denied.messages_used,
        denied.bytes_used,
        denied.result.decision.value,
    )
    experiment.add_row(
        "decision cached at PEP",
        "->".join(cached.step_numbers()),
        cached.messages_used,
        cached.bytes_used,
        f"{cached.result.decision.value} ({cached.result.source})",
    )
    experiment.show()

    # Figure shape: 4 logical steps; cold pays the PAP fetch, warm costs
    # exactly the query/response pair, a PEP cache hit costs nothing.
    assert cold.step_numbers() == ["I", "II", "III", "IV"]
    assert cold.messages_used == 4
    assert warm.messages_used == 2
    assert cached.messages_used == 0
    assert cached.result.source == "cache"
    assert cold.result.granted and warm.result.granted
    assert not denied.result.granted

    # Benchmark: the steady-state pull decision (query + response).
    benchmark(lambda: resource.pep.authorize_simple("alice", "db", "read"))
