#!/usr/bin/env python3
"""A science-grid Virtual Organisation: push and pull side by side.

Reproduces the environment of the paper's Fig. 1 with three collaborating
sites, then authorises the same cross-domain access two ways:

* **pull** (Fig. 3): the archive's PEP queries its PDP, which resolves
  the researcher's role from her *home* site's PIP;
* **push** (Fig. 2): the researcher first obtains a SAML capability from
  the VO's Community Authorization Service and presents it with the call;
  the archive validates it offline.

Run:  python examples/virtual_organization.py
"""

from repro.capability import (
    CapabilityEnforcer,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
from repro.core import ClientAgent, pull_sequence, push_sequence
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


def dataset_policy() -> Policy:
    return Policy(
        policy_id="climate-dataset-policy",
        description="VO researchers may read the climate archive",
        rules=(
            permit_rule(
                "researchers-read",
                target=subject_resource_action_target(action_id="read"),
                condition=attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string("researcher")
                ),
            ),
            deny_rule("default-deny"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="climate-archive"),
    )


def main() -> None:
    network = Network(seed=7)
    keystore = KeyStore(seed=7)

    # Three sites federate under a VO root CA with full-mesh trust.
    vo = build_federation(
        "earth-science-vo",
        ["uni-physics", "data-archive", "hpc-centre"],
        network,
        keystore,
        kinds=(TrustKind.IDENTITY, TrustKind.CAPABILITY),
    )
    print(f"federated VO {vo.name!r}: {sorted(vo.domains)}")

    physics = vo.domain("uni-physics")
    archive = vo.domain("data-archive")

    # A researcher homed at the physics site, VO membership granted.
    maria = physics.new_subject("maria", role=["researcher"])
    vo.grant_membership(maria, vo_role="researcher")

    # The archive exposes the dataset and publishes its policy.
    resource = archive.expose_resource("climate-archive")
    archive.pap.publish(dataset_policy())
    # Cross-domain attribute authority: the archive PDP may ask the
    # physics PIP about physics subjects.
    archive.pdp.pip_addresses.append(physics.pip.name)

    # ---- pull model (Fig. 3) ------------------------------------------------
    client = ClientAgent("client.maria", network, "maria")
    trace = pull_sequence(client, resource.pep, "climate-archive", "read")
    print("\n[pull / Fig. 3]")
    for step in trace.steps:
        print(f"  ({step.number}) {step.description}: {step.sender} -> {step.recipient}")
    print(
        f"  outcome={trace.result.decision.value}, "
        f"{trace.messages_used} msgs / {trace.bytes_used} bytes on the wire"
    )

    # ---- push model (Fig. 2) ------------------------------------------------
    cas_identity = physics.component_identity("cas.earth-science-vo")
    cas = CommunityAuthorizationService(
        "cas.earth-science-vo", network, "uni-physics", cas_identity,
        vo_name="earth-science-vo",
    )
    cas.set_subject_attribute("maria", SUBJECT_ROLE, ["researcher"])
    cas.add_policy(dataset_policy())
    verifier = CapabilityVerifier(
        archive, accepted_issuers={"cas.earth-science-vo"}
    )
    enforcer = CapabilityEnforcer(resource.pep, verifier)

    trace, capability = push_sequence(
        client, "cas.earth-science-vo", enforcer, "climate-archive", "read"
    )
    print("\n[push / Fig. 2]")
    for step in trace.steps:
        print(f"  ({step.number}) {step.description}: {step.sender} -> {step.recipient}")
    print(
        f"  outcome={trace.result.decision.value}, capability is "
        f"{capability.wire_size} bytes, valid "
        f"[{capability.assertion.not_before:.0f}, "
        f"{capability.assertion.not_on_or_after:.0f})"
    )

    # Re-use: ten more accesses cost zero capability-service messages.
    for _ in range(10):
        trace, _ = push_sequence(
            client, "cas.earth-science-vo", enforcer, "climate-archive", "read",
            reuse_capability=capability,
        )
        assert trace.result.granted and trace.messages_used == 0
    print("  10 re-uses: 0 additional authorisation messages")

    # The stolen-token case: the capability is bound to maria.
    stolen = enforcer.authorize(capability, "intruder", "climate-archive", "read")
    print(f"  stolen capability used by 'intruder' -> {stolen.decision.value}")

    print(
        f"\ntotal network traffic: {network.metrics.messages_sent} messages, "
        f"{network.metrics.bytes_sent} bytes"
    )


if __name__ == "__main__":
    main()
