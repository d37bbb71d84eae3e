#!/usr/bin/env python3
"""Policy administration across domains: lifecycle, delegation, syndication.

Walks the management machinery of the paper's Section 3.2:

1. a policy is written, reviewed (four-eyes), validated, approved and
   issued through the lifecycle state machine;
2. the VO authority delegates policy-making for one dataset to a site
   admin, who delegates to a project lead (Administration & Delegation
   profile); policies outside the delegated scope are rejected and a
   revocation at the root cascades down the whole chain;
3. a global policy is syndicated down the Fig. 5 hierarchy, with one
   strict domain filtering it out via its local acceptance constraint.

Run:  python examples/policy_administration.py
"""

from repro.admin import (
    DelegationRegistry,
    PolicyLifecycleManager,
    Scope,
    build_hierarchy,
    effective_policies,
)
from repro.components import PolicyAdministrationPoint
from repro.simnet import Network
from repro.xacml import (
    Policy,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)
from repro.xacml.analysis import find_modality_conflicts


def main() -> None:
    network = Network(seed=9)

    # --- 1. lifecycle: write -> review -> test -> approve -> issue ----------
    print("policy lifecycle (paper §3.2 management steps):")
    pap = PolicyAdministrationPoint("pap.hq", network, domain="hq")
    manager = PolicyLifecycleManager(clock=lambda: network.now)
    policy = Policy(
        policy_id="data-retention",
        rules=(
            deny_rule(
                "no-deletes",
                subject_resource_action_target(action_id="delete"),
            ),
            permit_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )
    manager.write(policy, author="ann")
    try:
        manager.review("data-retention", reviewer="ann")
    except Exception as error:
        print(f"  four-eyes enforced: {error}")
    manager.review("data-retention", reviewer="ben")
    errors = manager.test("data-retention", tester="cid")
    print(f"  static validation errors: {errors or 'none'}")
    manager.approve("data-retention", approver="ben")
    version = manager.issue("data-retention", issuer="ann", pap=pap)
    print(f"  issued to {pap.name} as version {version}; "
          f"state={manager.state_of('data-retention').value}")
    for event in manager.managed()[0].history:
        print(f"    t={event.at:.1f} {event.actor:>4}: "
              f"{(event.from_state.value if event.from_state else '-'):>9} "
              f"-> {event.to_state.value}")

    # --- 2. delegation chain + scoped issuing + cascade ----------------------
    print("\ncross-domain delegation (Administration & Delegation profile):")
    registry = DelegationRegistry(roots={"vo-authority"})
    registry.grant("vo-authority", "site-admin", Scope(resource_id="dataset-7"),
                   max_depth=2)
    registry.grant("site-admin", "project-lead", Scope(resource_id="dataset-7"),
                   max_depth=1)
    in_scope = Policy(
        policy_id="lead-grants-read",
        rules=(permit_rule("p"),),
        target=subject_resource_action_target(resource_id="dataset-7"),
        issuer="project-lead",
    )
    overreach = Policy(
        policy_id="lead-grants-payroll",
        rules=(permit_rule("p"),),
        target=subject_resource_action_target(resource_id="payroll"),
        issuer="project-lead",
    )
    effective, rejected = effective_policies(registry, [in_scope, overreach])
    print(f"  effective: {[p.policy_id for p in effective]}")
    for rejected_policy, reason in rejected:
        print(f"  rejected : {rejected_policy.policy_id} ({reason})")
    registry.revoke("vo-authority", "site-admin", Scope(resource_id="dataset-7"))
    effective, _ = effective_policies(registry, [in_scope])
    print(f"  after root revocation, lead's policy effective: {bool(effective)}")

    # --- 3. syndication hierarchy with a strict domain ------------------------
    print("\npolicy syndication (Fig. 5):")
    local_paps = [
        PolicyAdministrationPoint(f"pap.site-{name}", network, domain=f"site-{name}")
        for name in ("a", "b", "c", "d")
    ]

    def acceptance_for(domain):
        if domain == "site-d":
            # site-d only accepts policies its own admins pre-approved.
            return lambda element: element.policy_id.startswith("site-d:")
        return None

    root, leaves = build_hierarchy(
        network,
        "synd.global",
        {"west": local_paps[:2], "east": local_paps[2:]},
        acceptance_for=acceptance_for,
    )
    global_policy = Policy(
        policy_id="vo-lockdown",
        rules=(deny_rule("lockdown",
               subject_resource_action_target(action_id="delete")),),
    )
    reports = root.publish(global_policy)
    for report in reports:
        status = "accepted" if report.accepted else "REJECTED"
        print(f"  {report.node:<18} {status}")
    print(
        "  distribution used "
        f"{network.metrics.sent_by_kind.get('synd.update', 0)} update messages"
    )

    # Bonus: the conflict analyser inspects what is now deployed.
    deployed = [e for pap_ in local_paps for e in pap_.repository.all_elements()]
    conflicts = find_modality_conflicts(deployed)
    print(f"\nstatic conflict analysis over deployed policies: "
          f"{len(conflicts)} findings")


if __name__ == "__main__":
    main()
