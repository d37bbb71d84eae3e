"""E4 — Fig. 4: the XACML data-flow diagram.

Paper claim (Fig. 4, §2.3): a PDP answering a decision query resolves
subject/resource/environment attributes through the PIP (context handler)
and returns a decision that "may additionally impose certain obligations
on enforcement points".  This experiment traces one full data flow and
verifies each numbered interaction happened.
"""

from repro.bench import Experiment
from repro.domain import build_federation
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Category,
    Decision,
    Obligation,
    ObligationAssignment,
    Policy,
    SUBJECT_ROLE,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)

RESOURCE_SENSITIVITY = "urn:repro:resource:sensitivity"


def build(seed=4):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation("corp", ["hq"], network, keystore)
    hq = vo.domain("hq")
    hq.new_subject("alice", role=["analyst"])
    hq.pip.store.set_resource_attribute(
        "warehouse", RESOURCE_SENSITIVITY, [string("internal")]
    )
    from repro.xacml import Condition, apply_, designator, literal
    from repro.xacml.functions import FUNCTION_PREFIX_1_0

    condition = Condition(
        apply_(
            FUNCTION_PREFIX_1_0 + "and",
            apply_(
                FUNCTION_PREFIX_1_0 + "string-is-in",
                literal(string("analyst")),
                designator(Category.SUBJECT, SUBJECT_ROLE),
            ),
            apply_(
                FUNCTION_PREFIX_1_0 + "string-is-in",
                literal(string("internal")),
                designator(Category.RESOURCE, RESOURCE_SENSITIVITY),
            ),
        )
    )
    hq.pap.publish(
        Policy(
            policy_id="warehouse-policy",
            rules=(
                permit_rule("analysts-on-internal", condition=condition),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="warehouse"),
            obligations=(
                Obligation(
                    "urn:repro:obligation:watermark",
                    Decision.PERMIT,
                    assignments=(
                        ObligationAssignment("strength", string("high")),
                    ),
                ),
            ),
        )
    )
    resource = hq.expose_resource("warehouse")
    fulfilled = []
    resource.pep.register_obligation_handler(
        "urn:repro:obligation:watermark",
        lambda obligation, request: fulfilled.append(
            obligation.assignment("strength").value
        )
        or True,
    )
    return network, hq, resource, fulfilled


def test_e4_xacml_data_flow(benchmark):
    network, hq, resource, fulfilled = build()
    messages_before = dict(network.metrics.sent_by_kind)
    result = resource.pep.authorize_simple("alice", "warehouse", "read")

    sent = network.metrics.sent_by_kind
    pip_queries = sent.get("pip.query", 0) - messages_before.get("pip.query", 0)
    decision_queries = sent.get("xacml.request", 0) - messages_before.get(
        "xacml.request", 0
    )
    pap_fetches = sent.get("pap.retrieve", 0) - messages_before.get(
        "pap.retrieve", 0
    )

    experiment = Experiment(
        exp_id="E4",
        title="XACML data-flow trace (Fig. 4)",
        paper_claim="PEP -> context handler -> PDP; PDP pulls subject and "
        "resource attributes from the PIP; decision carries obligations",
        columns=["flow step", "observed"],
    )
    experiment.add_row("2. access request -> PEP", "authorize_simple intercepted")
    experiment.add_row("3/4. decision query PEP -> PDP", f"{decision_queries} query")
    experiment.add_row("pap: policy retrieval", f"{pap_fetches} bundle fetch")
    experiment.add_row(
        "5-8. attribute queries PDP -> PIP",
        f"{pip_queries} queries (subject role + resource sensitivity)",
    )
    experiment.add_row("11. response w/ decision", result.decision.value)
    experiment.add_row(
        "12/13. obligations fulfilled by PEP",
        f"watermark strength={fulfilled}",
    )
    experiment.show()

    # Shape: decision is Permit; both categories were resolved via the
    # PIP; the obligation reached and was fulfilled by the PEP.
    assert result.granted
    assert decision_queries == 1
    assert pip_queries == 2  # one subject attribute + one resource attribute
    assert fulfilled == ["high"]

    benchmark(lambda: resource.pep.authorize_simple("alice", "warehouse", "read"))
