"""Tests for workload generation and the named scenarios."""


from repro.simnet import Network
from repro.workloads import (
    PolicyCorpusSpec,
    WorkloadSpec,
    build_workload,
    generate_policy_corpus,
    healthcare_federation,
    request_stream,
    revocation_churn,
)
from repro.wss import KeyStore
from repro.xacml import Decision


class TestGenerator:
    def make(self, **overrides):
        spec = WorkloadSpec(
            domains=2, subjects_per_domain=4, resources_per_domain=3, seed=5,
            **overrides,
        )
        network = Network(seed=5)
        keystore = KeyStore(seed=5)
        return build_workload(spec, network, keystore), network

    def test_population_sizes(self):
        workload, _ = self.make()
        assert len(workload.subjects) == 8
        assert len(workload.resources) == 6
        assert len(workload.vo.domains) == 2

    def test_requests_reproducible(self):
        workload, _ = self.make()
        a = request_stream(workload, 50, seed=9)
        b = request_stream(workload, 50, seed=9)
        assert a == b

    def test_cross_domain_fraction_respected(self):
        workload, _ = self.make(cross_domain_fraction=0.0)
        events = request_stream(workload, 100)
        assert all(e.subject_domain == e.resource_domain for e in events)

    def test_zipf_skews_popularity(self):
        workload, _ = self.make(zipf_skew=1.5)
        events = request_stream(workload, 400)
        counts = {}
        for event in events:
            counts[event.resource_id] = counts.get(event.resource_id, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] > ranked[-1] * 2  # head much hotter than tail

    def test_workload_is_immediately_evaluable(self):
        workload, network = self.make()
        subject, domain_name = workload.subjects[0]
        resource_id, resource_domain = workload.resources[0]
        pep = workload.vo.domain(resource_domain).peps[resource_id]
        result = pep.authorize_simple(subject, resource_id, "read")
        assert result.decision in (Decision.PERMIT, Decision.DENY)

    def test_rbac_oracle_agrees_with_enforcement(self):
        workload, network = self.make()
        events = request_stream(workload, 30)
        for event in events[:10]:
            pep = workload.vo.domain(event.resource_domain).peps[event.resource_id]
            result = pep.authorize_simple(
                event.subject_id, event.resource_id, event.action_id
            )
            expected = workload.rbac.check_access(
                event.subject_id, event.resource_id, event.action_id
            )
            assert result.granted == expected, event


class TestPolicyCorpus:
    def test_corpus_size(self):
        policies, injected = generate_policy_corpus(
            PolicyCorpusSpec(policies=10, injected_conflicts=3, seed=1)
        )
        assert len(policies) == 10 + 2 * 3
        assert injected == 3

    def test_corpus_reproducible(self):
        a, _ = generate_policy_corpus(PolicyCorpusSpec(seed=2))
        b, _ = generate_policy_corpus(PolicyCorpusSpec(seed=2))
        assert [p.policy_id for p in a] == [p.policy_id for p in b]


class TestScenarios:

    def test_healthcare_roles_enforced(self):
        scenario = healthcare_federation(seed=1)
        hospital = scenario.vo.domain("hospital")
        pep = hospital.peps["patient-records"]
        pep.register_obligation_handler(
            "urn:repro:obligation:break-glass-audit", lambda ob, req: True
        )
        assert pep.authorize_simple("dr-adams", "patient-records", "read").granted
        assert not pep.authorize_simple(
            "prof-chen", "patient-records", "read"
        ).granted
        assert not pep.authorize_simple(
            "dr-adams", "patient-records", "write"
        ).granted

    def test_healthcare_break_glass_requires_obligation_handler(self):
        scenario = healthcare_federation(seed=1)
        hospital = scenario.vo.domain("hospital")
        pep = hospital.peps["patient-records"]
        # Without a registered break-glass handler the PEP must deny even
        # the physician (unknown obligation => deny, XACML 7.14).
        result = pep.authorize_simple("dr-adams", "patient-records", "read")
        assert not result.granted
        assert result.source == "obligation"

    def test_revocation_churn_builds_and_propagates(self):
        scenario = revocation_churn(seed=1, member_count=3)
        archive = scenario.vo.domain("archive")
        pep = archive.peps["shared-archive"]
        member = scenario.notes["members"][0]
        assert pep.authorize_simple(member, "shared-archive", "read").granted
        record = scenario.notes["revoke_member"](member)
        assert record.signature  # the registry signs with the authority key
        scenario.network.run(until=scenario.network.now + 1.0)
        assert not pep.authorize_simple(
            member, "shared-archive", "read"
        ).granted
        other = scenario.notes["members"][1]
        assert pep.authorize_simple(other, "shared-archive", "read").granted

    def test_revocation_churn_legacy_sites_bound(self):
        scenario = revocation_churn(seed=1, member_count=2)
        registry = scenario.notes["authority"].registry
        vo = scenario.vo
        # The trust graph reads its revocations from the unified registry.
        from repro.domain import TrustKind
        from repro.revocation import RevocationKind, trust_edge_target

        assert vo.trust.trusts("registrar", "archive", TrustKind.IDENTITY)
        registry.revoke(
            RevocationKind.TRUST_EDGE,
            trust_edge_target("registrar", "archive", "identity"),
        )
        assert not vo.trust.trusts("registrar", "archive", TrustKind.IDENTITY)

    def test_revocation_churn_strategy_is_pluggable(self):
        from repro.revocation import PullStrategy

        scenario = revocation_churn(
            seed=1,
            member_count=2,
            strategy_factory=lambda bus: PullStrategy(interval=2.0),
        )
        member = scenario.notes["members"][0]
        pep = scenario.vo.domain("archive").peps["shared-archive"]
        scenario.notes["revoke_member"](member)
        scenario.network.run(until=scenario.network.now + 3.0)
        assert not pep.authorize_simple(
            member, "shared-archive", "read"
        ).granted
