"""The three authorisation decision query sequences: agent, push, pull.

Paper §2.2: "Interactions between the decision (PDP) and enforcement
(PEP) points can be based on one of the three proposed authorisation
decision query sequences ... the agent, pull and push sequence models."
Each sequence here is a driver that executes the corresponding figure's
numbered steps over the simulated network and records a
:class:`FlowTrace`, which experiments E2–E4 print next to the paper's
diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..capability.cas import CapabilityRequest, capability_from_payload
from ..capability.tokens import CapabilityEnforcer, CapabilityScope
from ..components.base import Component
from ..components.pep import EnforcementResult, PolicyEnforcementPoint
from ..saml.assertions import SignedAssertion
from ..simnet.network import Network
from ..xacml.context import Decision, RequestContext
from ..xacml.engine import PdpEngine


@dataclass(frozen=True)
class FlowStep:
    """One numbered arrow of a figure's data flow."""

    number: str
    description: str
    sender: str
    recipient: str
    at: float


@dataclass
class FlowTrace:
    """An executed sequence: its steps plus the enforcement outcome."""

    sequence: str  # "pull" | "push" | "agent"
    steps: list[FlowStep] = field(default_factory=list)
    result: Optional[EnforcementResult] = None
    messages_used: int = 0
    bytes_used: int = 0

    def add(self, number: str, description: str, sender: str, recipient: str, at: float) -> None:
        self.steps.append(FlowStep(number, description, sender, recipient, at))

    def step_numbers(self) -> list[str]:
        return [step.number for step in self.steps]


class ClientAgent(Component):
    """A client-side stub a subject uses to call services and token
    services; exists so client traffic crosses the simulated network like
    everything else."""

    def __init__(self, name: str, network: Network, subject_id: str) -> None:
        super().__init__(name, network)
        self.subject_id = subject_id


def pull_sequence(
    client: ClientAgent,
    pep: PolicyEnforcementPoint,
    resource_id: str,
    action_id: str,
    request: Optional[RequestContext] = None,
) -> FlowTrace:
    """Fig. 3: policy-issuing (pull).  Client calls; PEP asks the PDP.

    Steps: (I) access request, (II) decision query, (III) decision
    response, (IV) enforce.
    """
    trace = FlowTrace(sequence="pull")
    metrics = client.network.metrics
    messages_before = metrics.messages_sent
    bytes_before = metrics.bytes_sent
    if request is None:
        request = RequestContext.simple(client.subject_id, resource_id, action_id)
    trace.add("I", "access request", client.name, pep.name, client.now)
    pdp_name = "|".join(pep.dispatcher.replicas) if pep.dispatcher else "(none)"
    trace.add("II", "authorisation decision query", pep.name, pdp_name, client.now)
    result = pep.authorize(request)
    trace.add("III", "authorisation decision response", pdp_name, pep.name, client.now)
    trace.add(
        "IV",
        f"access {'granted' if result.granted else 'denied'}",
        pep.name,
        client.name,
        client.now,
    )
    trace.result = result
    trace.messages_used = metrics.messages_sent - messages_before
    trace.bytes_used = metrics.bytes_sent - bytes_before
    return trace


def push_sequence(
    client: ClientAgent,
    capability_service: str,
    enforcer: CapabilityEnforcer,
    resource_id: str,
    action_id: str,
    audience: Optional[str] = None,
    reuse_capability: Optional[SignedAssertion] = None,
) -> tuple[FlowTrace, Optional[SignedAssertion]]:
    """Fig. 2: capability-issuing (push).

    Steps: (I) capability request, (II) capability response, (III)
    service call with assertion attached, (IV) validate + enforce.
    Passing ``reuse_capability`` skips steps I/II — the amortisation the
    push model exists for (experiment E13).
    """
    trace = FlowTrace(sequence="push")
    metrics = client.network.metrics
    messages_before = metrics.messages_sent
    bytes_before = metrics.bytes_sent
    capability = reuse_capability
    if capability is None:
        cap_request = CapabilityRequest(
            subject_id=client.subject_id,
            scopes=(CapabilityScope(resource_id, action_id),),
            audience=audience,
        )
        trace.add(
            "I", "capability request", client.name, capability_service, client.now
        )
        reply = client.call(capability_service, "cap.request", cap_request.to_xml())
        capability = capability_from_payload(reply.payload)
        trace.add(
            "II", "capability response", capability_service, client.name, client.now
        )
    trace.add(
        "III",
        "service call with capability assertion",
        client.name,
        enforcer.pep.name,
        client.now,
    )
    result = enforcer.authorize(
        capability, client.subject_id, resource_id, action_id
    )
    trace.add(
        "IV",
        f"capability validated, access {'granted' if result.granted else 'denied'}",
        enforcer.pep.name,
        client.name,
        client.now,
    )
    trace.result = result
    trace.messages_used = metrics.messages_sent - messages_before
    trace.bytes_used = metrics.bytes_sent - bytes_before
    return trace, capability


class AgentProxy(Component):
    """Fig.-style agent sequence: a proxy with an embedded decision engine.

    "The agent model is a proxy-based approach where a specialised
    component sits in front of an exposed service and mediates all access
    requests to this service.  The service can only communicate with the
    agent" (paper §2.2).  Policies live *in* the agent — the decentralised
    management model the paper contrasts with push/pull centralisation.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        service_name: str,
        engine: Optional[PdpEngine] = None,
    ) -> None:
        super().__init__(name, network)
        self.service_name = service_name
        self.engine = engine if engine is not None else PdpEngine()
        self.grants = 0
        self.denials = 0

    def mediate(self, request: RequestContext) -> Decision:
        decision = self.engine.decide(request, current_time=self.now)
        if decision is Decision.PERMIT:
            self.grants += 1
        else:
            self.denials += 1
        return decision


def agent_sequence(
    client: ClientAgent,
    agent: AgentProxy,
    resource_id: str,
    action_id: str,
) -> FlowTrace:
    """Agent model: client → agent (decides locally) → service."""
    trace = FlowTrace(sequence="agent")
    metrics = client.network.metrics
    messages_before = metrics.messages_sent
    bytes_before = metrics.bytes_sent
    request = RequestContext.simple(client.subject_id, resource_id, action_id)
    trace.add("I", "access request", client.name, agent.name, client.now)
    decision = agent.mediate(request)
    granted = decision is Decision.PERMIT
    if granted:
        trace.add(
            "II", "request forwarded to service", agent.name, agent.service_name,
            client.now,
        )
    trace.add(
        "III" if granted else "II",
        f"access {'granted' if granted else 'denied'}",
        agent.name,
        client.name,
        client.now,
    )
    trace.result = EnforcementResult(
        decision=decision if granted else Decision.DENY,
        source="agent",
    )
    trace.messages_used = metrics.messages_sent - messages_before
    trace.bytes_used = metrics.bytes_sent - bytes_before
    return trace
