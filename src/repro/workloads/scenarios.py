"""Named end-to-end scenarios used by examples and experiments.

Each scenario assembles a realistic multi-domain environment of the kind
the paper's introduction motivates: a healthcare federation (the XSPA
profile's setting, the ``healthcare_federation`` example) and a
membership-churn VO with unified revocation (experiment E15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..components.pep import PepConfig
from ..domain.federation import build_federation
from ..domain.virtual_org import VirtualOrganization
from ..models.abac import AbacPolicyBuilder, AbacRuleBuilder
from ..revocation.authority import RevocationAuthority
from ..revocation.bus import InvalidationBus
from ..revocation.coherence import CoherenceAgent
from ..revocation.strategies import PushStrategy
from ..simnet.network import Network
from ..wss.keys import KeyStore
from ..xacml import combining
from ..xacml.attributes import SUBJECT_ROLE
from ..xacml.context import Decision, Obligation, ObligationAssignment
from ..xacml.policy import Policy
from ..xacml.attributes import string


@dataclass
class Scenario:
    """A ready-to-run environment plus the handles experiments need."""

    name: str
    network: Network
    keystore: KeyStore
    vo: VirtualOrganization
    notes: dict[str, object] = field(default_factory=dict)


def healthcare_federation(seed: int = 0) -> Scenario:
    """Hospital + clinic + research institute sharing patient records.

    The XSPA-flavoured scenario: role- and purpose-constrained access to
    records, emergency override via obligation (break-glass audit).
    """
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation(
        "health-info-exchange",
        ["hospital", "clinic", "research"],
        network,
        keystore,
    )
    hospital = vo.domain("hospital")
    clinic = vo.domain("clinic")
    research = vo.domain("research")

    hospital.expose_resource(
        "patient-records", description="longitudinal patient records"
    )
    clinic.expose_resource("lab-results")
    research.expose_resource("anonymised-cohort")

    #: Physicians read records; researchers only the anonymised cohort;
    #: break-glass: emergency access permitted with a mandatory audit
    #: obligation (the paper's parameterised-enforcement example).
    audit_obligation = Obligation(
        obligation_id="urn:repro:obligation:break-glass-audit",
        fulfill_on=Decision.PERMIT,
        assignments=(
            ObligationAssignment("reason", string("emergency-access")),
        ),
    )
    record_policy = (
        AbacPolicyBuilder(
            "hospital-records-policy",
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        .for_resource("patient-records")
        .rule(
            AbacRuleBuilder("physicians-read")
            .permit()
            .when_subject(SUBJECT_ROLE, "physician")
            .when_action("read")
            .build()
        )
        .rule(
            AbacRuleBuilder("emergency-break-glass")
            .permit()
            .when_subject(SUBJECT_ROLE, "emergency-responder")
            .when_action("read")
            .build()
        )
        .default_deny()
        .build()
    )
    # Attach the break-glass obligation at policy level (fires on Permit;
    # physicians' reads also audit, which XSPA deployments do in practice).
    record_policy = Policy(
        policy_id=record_policy.policy_id,
        rules=record_policy.rules,
        rule_combining=record_policy.rule_combining,
        target=record_policy.target,
        obligations=(audit_obligation,),
        description=record_policy.description,
    )
    hospital.pap.publish(record_policy)

    clinic.pap.publish(
        AbacPolicyBuilder(
            "clinic-labs-policy", rule_combining=combining.RULE_FIRST_APPLICABLE
        )
        .for_resource("lab-results")
        .rule(
            AbacRuleBuilder("clinicians-read")
            .permit()
            .when_subject(SUBJECT_ROLE, "physician", "nurse")
            .when_action("read")
            .build()
        )
        .default_deny()
        .build()
    )
    research.pap.publish(
        AbacPolicyBuilder(
            "research-cohort-policy",
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        .for_resource("anonymised-cohort")
        .rule(
            AbacRuleBuilder("researchers-read")
            .permit()
            .when_subject(SUBJECT_ROLE, "researcher")
            .when_action("read")
            .build()
        )
        .default_deny()
        .build()
    )

    dr_adams = hospital.new_subject("dr-adams", role=["physician"])
    nurse_brown = clinic.new_subject("nurse-brown", role=["nurse"])
    prof_chen = research.new_subject("prof-chen", role=["researcher"])
    medic_diaz = hospital.new_subject("medic-diaz", role=["emergency-responder"])
    for subject in (dr_adams, nurse_brown, prof_chen, medic_diaz):
        vo.grant_membership(subject)

    # Cross-domain attribute authority: every PDP may consult every PIP.
    for name_a in vo.domains:
        for name_b in vo.domains:
            if name_a != name_b:
                vo.domain(name_a).pdp.pip_addresses.append(
                    vo.domain(name_b).pip.name
                )

    return Scenario(
        name="healthcare-federation",
        network=network,
        keystore=keystore,
        vo=vo,
        notes={
            "resources": ["patient-records", "lab-results", "anonymised-cohort"],
            "break_glass_obligation": "urn:repro:obligation:break-glass-audit",
        },
    )


def revocation_churn(
    seed: int = 0,
    member_count: int = 8,
    decision_cache_ttl: float = 30.0,
    strategy_factory=None,
    push_window: float = 0.0,
):
    """Membership churn with unified revocation (experiment E15's setting).

    A registrar domain admits analysts to a shared archive hosted by a
    second domain; members leave over time and their access must stop
    *before* caches age out.  The environment wires the full coherence
    substrate: a signed :class:`RevocationRegistry` fronted by a
    :class:`RevocationAuthority`, an :class:`InvalidationBus`, and a
    :class:`CoherenceAgent` guarding the archive PEP (push strategy by
    default; ``strategy_factory(bus)`` swaps it).

    ``notes["revoke_member"]`` performs one authoritative revocation:
    the registrar strips the member's role (PIP truth) *and* issues the
    registry record that propagation strategies carry to the archive.

    ``push_window`` > 0 makes the authority coalesce revocation bursts
    into batched bus publications (one message per subscriber per
    window) — E15's message-overhead-saving variant.
    """
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation(
        "churn-vo", ["registrar", "archive"], network, keystore
    )
    registrar = vo.domain("registrar")
    archive = vo.domain("archive")

    resource = archive.expose_resource(
        "shared-archive",
        description="community data archive",
        pep_config=PepConfig(decision_cache_ttl=decision_cache_ttl),
    )
    archive.pap.publish(
        AbacPolicyBuilder(
            "archive-policy", rule_combining=combining.RULE_FIRST_APPLICABLE
        )
        .for_resource("shared-archive")
        .rule(
            AbacRuleBuilder("analysts-read")
            .permit()
            .when_subject(SUBJECT_ROLE, "analyst")
            .when_action("read")
            .build()
        )
        .default_deny()
        .build()
    )
    # The archive PDP resolves registrar-homed subjects via their PIP.
    archive.pdp.pip_addresses.append(registrar.pip.name)

    members = []
    for index in range(member_count):
        subject = registrar.new_subject(f"member-{index}", role=["analyst"])
        vo.grant_membership(subject)
        members.append(subject.subject_id)

    authority_identity = registrar.component_identity("revocation.churn-vo")
    bus = InvalidationBus(network)
    authority = RevocationAuthority(
        "revocation.churn-vo",
        network,
        domain="registrar",
        identity=authority_identity,
        bus=bus,
        push_window=push_window,
    )
    # One source of revocation truth: legacy revocation owners delegate
    # to the authority's registry.
    vo.trust.bind_revocation_registry(authority.registry)
    for domain in (registrar, archive):
        domain.ca.bind_revocation_registry(authority.registry)

    strategy = (
        strategy_factory(bus) if strategy_factory else PushStrategy(bus)
    )
    agent = CoherenceAgent(
        "coherence.archive",
        network,
        authority.name,
        strategy,
        domain="archive",
        identity=archive.component_identity("coherence.archive"),
        # Pushed/pulled records must verify against the authority key —
        # a forged bus publication must not deny members or flush caches.
        authority_key=authority_identity.keypair.public,
    )
    agent.protect_pep(resource.pep)
    agent.protect_pdp(archive.pdp)

    def revoke_member(subject_id: str, reason: str = "membership ended"):
        registrar.pip.store.set_subject_attribute(subject_id, SUBJECT_ROLE, [])
        return authority.registry.revoke_subject_access(
            subject_id, reason=reason
        )

    return Scenario(
        name="revocation-churn",
        network=network,
        keystore=keystore,
        vo=vo,
        notes={
            "authority": authority,
            "bus": bus,
            "coherence": agent,
            "strategy": strategy,
            "members": members,
            "resource": resource.resource_id,
            "revoke_member": revoke_member,
        },
    )
