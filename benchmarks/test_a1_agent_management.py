"""A1 (ablation) — §2.2: agent model vs centralised policy management.

Paper claim: "The agent model constitutes a decentralised approach to
access control policy management.  Policies need to be expressed, managed
and enforced in distributed agents ... In case of push and pull models,
policies can be managed centrally and applied to a wide group of
services."

The ablation measures the management cost of one policy change rolled out
to N protected services: with per-service agents every agent must be
updated individually; with the centralised (pull) model one PAP publish
suffices and PDPs pick it up on their next fetch.
"""

from repro.bench import Experiment
from repro.components import (
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.core import AgentProxy
from repro.simnet import Network
from repro.xacml import (
    Decision,
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    serialize_policy,
    parse_policy,
    subject_resource_action_target,
)

SERVICES = 20


def updated_policy():
    return Policy(
        policy_id="managed-policy",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def run_agents():
    """Decentralised: one agent per service, each updated individually."""
    network = Network(seed=61)
    agents = [
        AgentProxy(f"agent.svc-{index}", network, service_name=f"svc-{index}")
        for index in range(SERVICES)
    ]
    before = network.metrics.messages_sent
    policy_xml = serialize_policy(updated_policy())
    # The administrator pushes the new policy into every agent; each push
    # is one management message carrying the policy.
    admin = network.node("admin")
    for agent in agents:
        from repro.simnet import Message

        admin.send(
            Message(
                sender="admin",
                recipient=agent.name,
                kind="admin.update",
                payload=policy_xml,
            )
        )
    network.run()
    for agent in agents:
        agent.engine.store.replace(parse_policy(policy_xml))
    messages = network.metrics.messages_sent - before
    # Verify every agent now enforces the new policy.
    request = RequestContext.simple("alice", "r", "read")
    assert all(agent.mediate(request) is Decision.PERMIT for agent in agents)
    return messages


def run_central():
    """Centralised: one PAP publish; a shared PDP serves all services."""
    network = Network(seed=62)
    pap = PolicyAdministrationPoint("pap.central", network)
    pdp = PolicyDecisionPoint("pdp.central", network, pap_address="pap.central")
    before = network.metrics.messages_sent
    pap.publish(updated_policy())
    network.run()
    messages = network.metrics.messages_sent - before
    # Verify the shared PDP now decides by the new policy.
    pep = PolicyEnforcementPoint("pep.svc-0", network, pdp_address=pdp.name)
    request = RequestContext.simple("alice", "r", "read")
    assert pep.authorize(request).decision is Decision.PERMIT
    return messages


def test_a1_agent_vs_central_management(benchmark):
    agent_messages = run_agents()
    central_messages = run_central()

    experiment = Experiment(
        exp_id="A1",
        title=f"Rolling one policy change out to {SERVICES} services",
        paper_claim="the agent model decentralises policy management "
        "(per-agent updates); push/pull centralise it (one PAP publish)",
        columns=["model", "management_messages", "per_service"],
    )
    experiment.add_row(
        "agent (decentralised)", agent_messages,
        round(agent_messages / SERVICES, 2),
    )
    experiment.add_row("centralised PAP (pull)", central_messages, "-")
    experiment.show()

    # Shape: agent-model management cost is linear in services;
    # centralised cost is constant.
    assert agent_messages >= SERVICES
    assert central_messages <= 2

    benchmark(run_central)
