"""Integration tests: full multi-domain flows across the whole stack."""

import pytest

from repro.capability import (
    CapabilityEnforcer,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
from repro.core import (
    AccessControlSystem,
    ClientAgent,
    SystemConfig,
    push_sequence,
)
from repro.domain import TrustKind, build_federation
from repro.simnet import FailureInjector, Network
from repro.wss import KeyStore
from repro.xacml import (
    Category,
    Decision,
    Policy,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)


class TestCrossDomainPull:
    """Fig. 1 + Fig. 3: a client from one domain accesses a resource in
    another; attributes resolve across domains; every byte crosses the
    simulated network."""

    @pytest.fixture
    def vo(self):
        network = Network(seed=101)
        keystore = KeyStore(seed=101)
        vo = build_federation(
            "science", ["physics", "chemistry"], network, keystore
        )
        physics, chemistry = vo.domain("physics"), vo.domain("chemistry")
        alice = physics.new_subject("alice", role=["researcher"])
        vo.grant_membership(alice)
        chemistry.expose_resource("spectra")
        chemistry.pap.publish(
            Policy(
                policy_id="spectra-policy",
                rules=(
                    permit_rule(
                        "researchers",
                        condition=attribute_equals(
                            Category.SUBJECT, SUBJECT_ROLE, string("researcher")
                        ),
                    ),
                    deny_rule("others"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
                target=subject_resource_action_target(resource_id="spectra"),
            )
        )
        chemistry.pdp.pip_addresses.append(physics.pip.name)
        return network, vo

    def test_cross_domain_grant_and_deny(self, vo):
        network, vo_env = vo
        pep = vo_env.domain("chemistry").peps["spectra"]
        assert pep.authorize_simple("alice", "spectra", "read").granted
        assert not pep.authorize_simple("mallory", "spectra", "read").granted

    def test_attribute_resolution_crosses_domains(self, vo):
        network, vo_env = vo
        chemistry = vo_env.domain("chemistry")
        physics = vo_env.domain("physics")
        chemistry.peps["spectra"].authorize_simple("alice", "spectra", "read")
        assert physics.pip.queries_served >= 1

    def test_revocation_takes_effect_after_policy_cache_expiry(self, vo):
        network, vo_env = vo
        chemistry = vo_env.domain("chemistry")
        pep = chemistry.peps["spectra"]
        assert pep.authorize_simple("alice", "spectra", "read").granted
        chemistry.pap.withdraw("spectra-policy")
        chemistry.pdp.invalidate_policy_cache()
        result = pep.authorize_simple("alice", "spectra", "read")
        assert not result.granted  # NotApplicable enforced as deny


class TestPushVsPullEquivalence:
    """Both architectures must agree on who gets in."""

    def test_same_subjects_admitted(self):
        network = Network(seed=103)
        keystore = KeyStore(seed=103)
        vo = build_federation(
            "grid", ["site-a", "site-b"], network, keystore,
            kinds=(TrustKind.IDENTITY, TrustKind.CAPABILITY),
        )
        site_a, site_b = vo.domain("site-a"), vo.domain("site-b")
        for user, role in (("ana", "analyst"), ("vic", "visitor")):
            subject = site_a.new_subject(user, role=[role])
            vo.grant_membership(subject)
        resource = site_b.expose_resource("dataset")
        policy = Policy(
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
        # Pull side: policy at site-b PAP, attributes from site-a PIP.
        site_b.pap.publish(policy)
        site_b.pdp.pip_addresses.append(site_a.pip.name)
        # Push side: CAS holds the same policy and community attributes.
        cas_identity = site_a.component_identity("cas.grid")
        cas = CommunityAuthorizationService(
            "cas.grid", network, "site-a", cas_identity, vo_name="grid"
        )
        cas.add_policy(policy)
        cas.set_subject_attribute("ana", SUBJECT_ROLE, ["analyst"])
        cas.set_subject_attribute("vic", SUBJECT_ROLE, ["visitor"])
        verifier = CapabilityVerifier(site_b)
        enforcer = CapabilityEnforcer(resource.pep, verifier)

        for user, expected in (("ana", True), ("vic", False)):
            pull_result = resource.pep.authorize_simple(user, "dataset", "read")
            client = ClientAgent(f"client.{user}", network, user)
            try:
                trace, _ = push_sequence(client, "cas.grid", enforcer, "dataset", "read")
                push_granted = trace.result.granted
            except Exception:
                push_granted = False
            assert pull_result.granted == push_granted == expected


class TestDependabilityUnderFaults:
    def test_replicated_system_rides_through_crash_storm(self):
        network = Network(seed=113)
        keystore = KeyStore(seed=113)
        vo = build_federation("vo", ["acme"], network, keystore)
        domain = vo.domain("acme")
        system = AccessControlSystem(
            domain,
            config=SystemConfig(pdp_replicas=3, heartbeat_period=0.2),
        )
        system.protect("db")
        system.publish_policy(
            Policy(
                policy_id="db-policy",
                rules=(
                    permit_rule(
                        "alice-ok",
                        subject_resource_action_target(subject_id="alice"),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
                target=subject_resource_action_target(resource_id="db"),
            )
        )
        injector = FailureInjector(network, seed=113)
        addresses = system.cluster.addresses
        # Crash replicas one at a time with recovery; never all at once.
        injector.crash_for(addresses[0], at=network.now + 1.0, duration=2.0)
        injector.crash_for(addresses[1], at=network.now + 4.0, duration=2.0)
        granted = denied = 0
        for step in range(12):
            network.run(until=network.now + 0.6)
            result = system.authorize("alice", "db", "read")
            if result.granted:
                granted += 1
            else:
                denied += 1
        # With heartbeat failover the vast majority of requests succeed;
        # a request can only fail in the short detection window.
        assert granted >= 10
        # And nothing was ever wrongly granted to an unauthorised subject.
        assert not system.authorize("eve", "db", "read").granted

    def test_single_pdp_system_fails_safe(self):
        network = Network(seed=127)
        keystore = KeyStore(seed=127)
        vo = build_federation("vo", ["acme"], network, keystore)
        domain = vo.domain("acme")
        system = AccessControlSystem(domain)
        system.protect("db")
        system.publish_policy(
            Policy(policy_id="p", rules=(permit_rule("open"),))
        )
        assert system.authorize("alice", "db", "read").granted
        domain.pdp.crash()
        result = system.authorize("alice", "db", "read")
        assert not result.granted
        assert result.source == "fail-safe"
        assert system.stats()["fail_safe_denials"] == 1


class TestObligationDrivenContentControl:
    """Paper §3.1: content-based access via implementation-specific
    obligations — the PEP checks resource content before release."""

    def test_content_filter_obligation(self):
        from repro.xacml import Obligation, ObligationAssignment

        network = Network(seed=131)
        keystore = KeyStore(seed=131)
        vo = build_federation("vo", ["acme"], network, keystore)
        domain = vo.domain("acme")
        resource = domain.expose_resource("reports")
        domain.pap.publish(
            Policy(
                policy_id="reports-policy",
                rules=(permit_rule("anyone"),),
                target=subject_resource_action_target(resource_id="reports"),
                obligations=(
                    Obligation(
                        "urn:repro:obligation:content-check",
                        Decision.PERMIT,
                        assignments=(
                            ObligationAssignment(
                                "forbidden-marker", string("CONFIDENTIAL")
                            ),
                        ),
                    ),
                ),
            )
        )
        content_by_resource = {"reports": "quarterly CONFIDENTIAL figures"}

        def content_check(obligation, request):
            marker = obligation.assignment("forbidden-marker")
            body = content_by_resource.get(request.resource_id or "", "")
            return marker is None or marker.value not in body

        resource.pep.register_obligation_handler(
            "urn:repro:obligation:content-check", content_check
        )
        result = resource.pep.authorize_simple("alice", "reports", "read")
        assert not result.granted  # content contains the forbidden marker
        content_by_resource["reports"] = "public summary"
        result = resource.pep.authorize_simple("alice", "reports", "read")
        assert result.granted
