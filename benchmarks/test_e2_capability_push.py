"""E2 — Fig. 2: the capability-issuing (push) security architecture.

Paper claim (Fig. 2, §2.2): four steps — (I) capability request, (II)
capability response with signed assertions, (III) service call carrying
the capability, (IV) PEP validates integrity/authenticity/sufficiency and
decides.  Capabilities amortise: re-using one across calls skips steps
I/II entirely; the resource provider still holds final say.
"""

from repro.bench import Experiment
from repro.capability import (
    CAPABILITY_LIFETIME,
    CapabilityEnforcer,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
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


def build(seed=2):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation(
        "grid", ["issuing-site", "resource-site"], network, keystore,
        kinds=(TrustKind.CAPABILITY,),
    )
    issuing, hosting = vo.domain("issuing-site"), vo.domain("resource-site")
    cas_identity = issuing.component_identity("cas.grid")
    cas = CommunityAuthorizationService(
        "cas.grid", network, "issuing-site", cas_identity, vo_name="grid"
    )
    cas.set_subject_attribute("ana", SUBJECT_ROLE, ["analyst"])
    cas.add_policy(
        Policy(
            policy_id="community-policy",
            rules=(
                permit_rule(
                    "analysts-read",
                    target=subject_resource_action_target(action_id="read"),
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string("analyst")
                    ),
                ),
                deny_rule("refuse"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )
    resource = hosting.expose_resource("dataset")
    verifier = CapabilityVerifier(hosting, accepted_issuers={"cas.grid"})
    enforcer = CapabilityEnforcer(resource.pep, verifier)
    return network, cas, enforcer


def test_e2_capability_push_flow(benchmark):
    network, cas, enforcer = build()
    client = ClientAgent("client.ana", network, "ana")

    first_trace, capability = push_sequence(
        client, "cas.grid", enforcer, "dataset", "read"
    )
    reuse_traces = [
        push_sequence(
            client, "cas.grid", enforcer, "dataset", "read",
            reuse_capability=capability,
        )[0]
        for _ in range(9)
    ]

    experiment = Experiment(
        exp_id="E2",
        title="Capability-issuing (push) flow (Fig. 2)",
        paper_claim="4-step flow; capability cost amortises over reuse; "
        "PEP validates integrity, authenticity, window and scope",
        columns=["phase", "steps", "network_messages", "bytes", "granted"],
    )
    experiment.add_row(
        "first access (issue I/II + call III/IV)",
        "->".join(first_trace.step_numbers()),
        first_trace.messages_used,
        first_trace.bytes_used,
        first_trace.result.granted,
    )
    experiment.add_row(
        "re-use (III/IV only)",
        "->".join(reuse_traces[0].step_numbers()),
        reuse_traces[0].messages_used,
        reuse_traces[0].bytes_used,
        reuse_traces[0].result.granted,
    )

    # Figure shape: 4 steps first, 2 steps on reuse; issuing needs the
    # capability-service round-trip, reuse costs no capability messages.
    assert first_trace.step_numbers() == ["I", "II", "III", "IV"]
    assert reuse_traces[0].step_numbers() == ["III", "IV"]
    assert first_trace.messages_used == 2
    assert all(trace.messages_used == 0 for trace in reuse_traces)
    assert first_trace.result.granted
    assert all(trace.result.granted for trace in reuse_traces)

    # PEP-side validation rejects out-of-scope, stolen and expired tokens.
    out_of_scope = enforcer.authorize(capability, "ana", "dataset", "write")
    stolen = enforcer.authorize(capability, "mallory", "dataset", "read")
    network.clock.advance_to(network.now + CAPABILITY_LIFETIME + 1.0)
    expired = enforcer.authorize(capability, "ana", "dataset", "read")
    experiment.add_row("out-of-scope action", "-", 0, 0, out_of_scope.granted)
    experiment.add_row("stolen by mallory", "-", 0, 0, stolen.granted)
    experiment.add_row("expired capability", "-", 0, 0, expired.granted)
    assert not out_of_scope.granted
    assert not stolen.granted
    assert not expired.granted
    experiment.note(
        f"capability wire size: {capability.wire_size} bytes "
        f"(signed SAML assertion)"
    )
    experiment.show()

    # Benchmark: PEP-side validation of a fresh capability (step IV).
    network2, cas2, enforcer2 = build(seed=22)
    client2 = ClientAgent("client.ana", network2, "ana")
    _, fresh = push_sequence(client2, "cas.grid", enforcer2, "dataset", "read")
    benchmark(lambda: enforcer2.authorize(fresh, "ana", "dataset", "read"))
