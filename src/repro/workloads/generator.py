"""Synthetic multi-domain workload generation.

The paper's authors evaluated against enterprise/grid deployments we do
not have; these generators produce the synthetic equivalents (DESIGN.md
§2): seeded, parameterised populations of domains, subjects, roles,
resources and request streams with skewed (Zipf-like) resource
popularity — the skew is what makes decision caching (E6) behave like it
does in production.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..domain.virtual_org import VirtualOrganization
from ..models.rbac import RbacModel
from ..simnet.network import Network
from ..wss.keys import KeyStore
from ..xacml import combining
from ..xacml.policy import Policy
from ..xacml.rules import deny_rule, permit_rule
from ..xacml.targets import subject_resource_action_target

ACTIONS = ("read", "write", "delete")


@dataclass
class WorkloadSpec:
    """Parameters of a synthetic multi-domain workload."""

    domains: int = 3
    subjects_per_domain: int = 20
    resources_per_domain: int = 10
    roles: tuple[str, ...] = ("staff", "engineer", "manager")
    #: Fraction of requests issued by subjects from another domain.
    cross_domain_fraction: float = 0.3
    #: Zipf skew for resource popularity (1.0 = classic; 0 = uniform).
    zipf_skew: float = 1.0
    read_fraction: float = 0.8
    seed: int = 0


@dataclass(frozen=True)
class AccessEvent:
    """One request in a generated stream."""

    subject_id: str
    subject_domain: str
    resource_id: str
    resource_domain: str
    action_id: str


@dataclass
class GeneratedWorkload:
    """Everything an experiment needs: the VO plus generators' metadata."""

    spec: WorkloadSpec
    vo: VirtualOrganization
    rbac: RbacModel
    subjects: list[tuple[str, str]] = field(default_factory=list)  # (id, domain)
    resources: list[tuple[str, str]] = field(default_factory=list)  # (id, domain)


def _zipf_weights(n: int, skew: float) -> list[float]:
    if skew <= 0:
        return [1.0] * n
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


def build_workload(
    spec: WorkloadSpec, network: Network, keystore: KeyStore
) -> GeneratedWorkload:
    """Build a federated VO populated per the spec.

    Each domain gets the standard component layout; one VO-wide RBAC
    model assigns every subject a role; each domain publishes the
    compiled role policy set for its resources.
    """
    from ..domain.federation import build_federation

    domain_names = [f"domain-{i}" for i in range(spec.domains)]
    vo = build_federation(
        f"workload-vo-{spec.seed}", domain_names, network, keystore
    )
    rbac = RbacModel(name=f"wl-{spec.seed}")
    for role in spec.roles:
        rbac.add_role(role)
    workload = GeneratedWorkload(spec=spec, vo=vo, rbac=rbac)

    for domain_name in domain_names:
        domain = vo.domain(domain_name)
        for res_index in range(spec.resources_per_domain):
            resource_id = f"res-{domain_name}-{res_index}"
            domain.expose_resource(resource_id)
            workload.resources.append((resource_id, domain_name))
            # Every role can read a prefix of resources; seniors get writes.
            for role_index, role in enumerate(spec.roles):
                if res_index % (role_index + 1) == 0:
                    rbac.grant_permission(role, resource_id, "read")
                if role_index == len(spec.roles) - 1:
                    rbac.grant_permission(role, resource_id, "write")
        for subj_index in range(spec.subjects_per_domain):
            subject_id = f"user-{domain_name}-{subj_index}"
            role = spec.roles[subj_index % len(spec.roles)]
            subject = domain.new_subject(subject_id, role=[role])
            rbac.assign_user(subject_id, role)
            vo.grant_membership(subject)
            workload.subjects.append((subject_id, domain_name))

    # Publish the RBAC policy set in every domain and sync PIPs.
    policy_set = rbac.compile_policy_set()
    for domain_name in domain_names:
        domain = vo.domain(domain_name)
        domain.pap.publish(policy_set, publisher="workload-generator")
        rbac.populate_pip(domain.pip.store)
        # Cross-domain requests resolve roles from the subject's home
        # domain; give each PDP the other PIPs as fallback authorities.
        for other_name in domain_names:
            if other_name != domain_name:
                domain.pdp.pip_addresses.append(
                    vo.domain(other_name).pip.name
                )
    return workload


def request_stream(
    workload: GeneratedWorkload, count: int, seed: Optional[int] = None
) -> list[AccessEvent]:
    """Generate a request stream with Zipf resource popularity."""
    spec = workload.spec
    rng = random.Random(spec.seed if seed is None else seed)
    weights = _zipf_weights(len(workload.resources), spec.zipf_skew)
    events = []
    for _ in range(count):
        resource_id, resource_domain = rng.choices(
            workload.resources, weights=weights
        )[0]
        candidates = (
            [(s, d) for s, d in workload.subjects if d != resource_domain]
            if rng.random() < spec.cross_domain_fraction
            else [(s, d) for s, d in workload.subjects if d == resource_domain]
        )
        subject_id, subject_domain = rng.choice(candidates or workload.subjects)
        action_id = "read" if rng.random() < spec.read_fraction else "write"
        events.append(
            AccessEvent(
                subject_id=subject_id,
                subject_domain=subject_domain,
                resource_id=resource_id,
                resource_domain=resource_domain,
                action_id=action_id,
            )
        )
    return events


# -- policy corpus generation (conflict analysis, E8) ---------------------------------------


@dataclass
class PolicyCorpusSpec:
    policies: int = 50
    rules_per_policy: int = 4
    subjects: int = 20
    resources: int = 20
    #: Fraction of rules that are Deny (the rest Permit).
    deny_fraction: float = 0.3
    #: Number of deliberately injected conflicting pairs.
    injected_conflicts: int = 5
    seed: int = 0


def generate_policy_corpus(spec: PolicyCorpusSpec) -> tuple[list[Policy], int]:
    """Random policies plus deliberately injected modality conflicts.

    Returns (policies, injected_conflict_count) so analyses can check
    recall: the analyser must find at least the injected conflicts.
    """
    rng = random.Random(spec.seed)
    subjects = [f"s{i}" for i in range(spec.subjects)]
    resources = [f"r{i}" for i in range(spec.resources)]
    policies: list[Policy] = []
    for p_index in range(spec.policies):
        rules = []
        for r_index in range(spec.rules_per_policy):
            subject = rng.choice(subjects)
            resource = rng.choice(resources)
            action = rng.choice(ACTIONS)
            builder = (
                deny_rule if rng.random() < spec.deny_fraction else permit_rule
            )
            rules.append(
                builder(
                    rule_id=f"p{p_index}-r{r_index}",
                    target=subject_resource_action_target(
                        subject_id=subject,
                        resource_id=resource,
                        action_id=action,
                    ),
                )
            )
        policies.append(
            Policy(
                policy_id=f"corpus-{spec.seed}-p{p_index}",
                rules=tuple(rules),
                rule_combining=combining.RULE_DENY_OVERRIDES,
            )
        )
    # Inject guaranteed conflicts: same (s, r, a), opposite effects, in
    # two fresh policies per pair.
    for c_index in range(spec.injected_conflicts):
        subject = rng.choice(subjects)
        resource = rng.choice(resources)
        action = rng.choice(ACTIONS)
        target = subject_resource_action_target(
            subject_id=subject, resource_id=resource, action_id=action
        )
        policies.append(
            Policy(
                policy_id=f"corpus-{spec.seed}-inj{c_index}-permit",
                rules=(permit_rule(f"inj{c_index}-permit", target=target),),
            )
        )
        policies.append(
            Policy(
                policy_id=f"corpus-{spec.seed}-inj{c_index}-deny",
                rules=(deny_rule(f"inj{c_index}-deny", target=target),),
            )
        )
    return policies, spec.injected_conflicts
