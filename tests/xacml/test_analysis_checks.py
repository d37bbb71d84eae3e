"""Tests for the analyzer's detectors, witness replay and CLI."""

import json

from repro.xacml import (
    AttributeDesignator,
    Category,
    Condition,
    DataType,
    Decision,
    Designator,
    PdpEngine,
    Policy,
    PolicySet,
    PolicyStore,
    apply_,
    attribute_equals,
    combining,
    functions,
    literal,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml.attributes import SUBJECT_ROLE
from repro.xacml.policy import PolicyReference
from repro.xacml.analysis import (
    FindingKind,
    WITNESS_KINDS,
    analyze,
)
from repro.xacml.analysis.__main__ import main as cli_main


def of_kind(report, kind):
    return [finding for finding in report.findings if finding.kind is kind]


def role_condition(role: str):
    return attribute_equals(Category.SUBJECT, SUBJECT_ROLE, string(role))


def shadowed_policy() -> Policy:
    """first-applicable: the permit covers the later deny entirely."""
    return Policy(
        policy_id="shadowed",
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="db", action_id="read"),
        rules=(
            permit_rule("allow-any"),
            deny_rule("deny-admin", condition=role_condition("admin")),
        ),
    )


def masked_policy() -> Policy:
    """permit-overrides: the deny can never win."""
    return Policy(
        policy_id="masked",
        rule_combining=combining.RULE_PERMIT_OVERRIDES,
        target=subject_resource_action_target(resource_id="db", action_id="read"),
        rules=(
            permit_rule("allow-admin", condition=role_condition("admin")),
            deny_rule("deny-admin", condition=role_condition("admin")),
        ),
    )


def redundant_policy() -> Policy:
    """deny-overrides: two identical error-free permits."""
    return Policy(
        policy_id="redundant",
        rule_combining=combining.RULE_DENY_OVERRIDES,
        target=subject_resource_action_target(resource_id="db", action_id="read"),
        rules=(
            permit_rule("allow-admin", condition=role_condition("admin")),
            permit_rule("allow-admin-again", condition=role_condition("admin")),
        ),
    )


def clean_policy(policy_id="clean", resource="db") -> Policy:
    return Policy(
        policy_id=policy_id,
        rule_combining=combining.RULE_PERMIT_OVERRIDES,
        target=subject_resource_action_target(resource_id=resource, action_id="read"),
        rules=(permit_rule("allow-admin", condition=role_condition("admin")),),
    )


class TestDetectors:
    def test_shadowed_rule_is_detected_with_witness(self):
        report = analyze(shadowed_policy())
        findings = of_kind(report, FindingKind.SHADOWED_RULE)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.location == "policy[shadowed]/rule[deny-admin]"
        assert finding.witness is not None
        assert finding.witness_decision is Decision.PERMIT

    def test_masked_effect_is_detected_with_witness(self):
        report = analyze(masked_policy())
        findings = of_kind(report, FindingKind.MASKED_EFFECT)
        assert len(findings) == 1
        assert findings[0].witness_decision is Decision.PERMIT

    def test_redundant_rule_is_detected_with_witness(self):
        report = analyze(redundant_policy())
        findings = of_kind(report, FindingKind.REDUNDANT_RULE)
        assert len(findings) >= 1
        assert all(f.witness is not None for f in findings)

    def test_clean_policy_yields_no_findings(self):
        report = analyze(clean_policy())
        assert report.findings == []

    def test_dead_policy_from_unsatisfiable_target(self):
        from repro.xacml.targets import target_of, match_equal
        from repro.xacml.attributes import RESOURCE_ID

        policy = Policy(
            policy_id="dead",
            target=target_of(
                match_equal(Category.RESOURCE, RESOURCE_ID, string("a")),
                match_equal(Category.RESOURCE, RESOURCE_ID, string("b")),
            ),
            rules=(permit_rule("allow"),),
        )
        report = analyze(policy)
        assert len(of_kind(report, FindingKind.DEAD_POLICY)) == 1

    def test_unsatisfiable_rule_target(self):
        from repro.xacml.targets import target_of, match_equal
        from repro.xacml.attributes import RESOURCE_ID

        policy = Policy(
            policy_id="p",
            rules=(
                permit_rule(
                    "never",
                    target=target_of(
                        match_equal(Category.RESOURCE, RESOURCE_ID, string("a")),
                        match_equal(Category.RESOURCE, RESOURCE_ID, string("b")),
                    ),
                ),
                permit_rule("fine"),
            ),
        )
        report = analyze(policy)
        findings = of_kind(report, FindingKind.UNSATISFIABLE_TARGET)
        assert [f.location for f in findings] == ["policy[p]/rule[never]"]

    def test_only_one_applicable_overlap(self):
        policy_set = PolicySet(
            policy_set_id="ooa",
            policy_combining=combining.POLICY_ONLY_ONE_APPLICABLE,
            children=(
                clean_policy("first"),
                clean_policy("second"),
            ),
        )
        report = analyze(policy_set)
        findings = of_kind(report, FindingKind.ONLY_ONE_APPLICABLE_OVERLAP)
        assert len(findings) == 1
        assert findings[0].witness_decision is Decision.INDETERMINATE

    def test_cross_policy_conflict(self):
        deny = Policy(
            policy_id="deny-admins",
            target=subject_resource_action_target(
                resource_id="db", action_id="read"
            ),
            rules=(deny_rule("deny-admin", condition=role_condition("admin")),),
        )
        policy_set = PolicySet(
            policy_set_id="conflicted",
            policy_combining=combining.POLICY_DENY_OVERRIDES,
            children=(clean_policy("permits"), deny),
        )
        report = analyze(policy_set)
        findings = of_kind(report, FindingKind.CROSS_POLICY_CONFLICT)
        assert len(findings) == 1
        assert findings[0].witness is not None

    def test_disjoint_policies_do_not_conflict(self):
        policy_set = PolicySet(
            policy_set_id="disjoint",
            policy_combining=combining.POLICY_DENY_OVERRIDES,
            children=(
                clean_policy("a", resource="db"),
                clean_policy("b", resource="fs"),
            ),
        )
        report = analyze(policy_set)
        assert report.findings == []

    def test_a_pin_on_an_issued_bag_conflicts_with_a_plain_pin(self):
        """``resource-id == res-1`` asked of the ``issuer="hr"`` bag reads
        another bag than a plain ``resource-id == payroll``: the engine
        grants and denies the request hr calls res-1 and whose own id is
        payroll, so the scan must not bucket the two policies apart."""
        from dataclasses import replace

        from repro.xacml import AttributeDesignator, DataType, match_equal, target_of
        from repro.xacml.attributes import RESOURCE_ID

        hr_bag = AttributeDesignator(
            Category.RESOURCE, RESOURCE_ID, DataType.STRING, issuer="hr"
        )
        pin = replace(
            match_equal(Category.RESOURCE, RESOURCE_ID, string("res-1")),
            designator=hr_bag,
        )
        escape = Policy(
            policy_id="escape", rules=(permit_rule("p"),), target=target_of(pin)
        )
        guard = Policy(
            policy_id="guard",
            rules=(deny_rule("d", subject_resource_action_target(resource_id="payroll")),),
        )
        store = PolicyStore(indexed=False)
        store.add(escape)
        store.add(guard)
        report = analyze(store, include_validation=False)
        assert report.stats.pairs_considered == 1
        (finding,) = report.findings
        assert finding.kind is FindingKind.CROSS_POLICY_CONFLICT
        for policy, decision in ((escape, Decision.PERMIT), (guard, Decision.DENY)):
            engine = PdpEngine(PolicyStore(indexed=False))
            engine.add_policy(policy)
            assert engine.decide(finding.witness) is decision


class TestWitnessGuarantee:
    def test_every_witness_kind_finding_carries_a_witness(self):
        subjects = [shadowed_policy(), masked_policy(), redundant_policy()]
        for subject in subjects:
            for finding in analyze(subject).findings:
                if finding.kind in WITNESS_KINDS:
                    assert finding.witness is not None, finding
                    assert finding.witness_decision is not None, finding

    def test_witnesses_replay_through_the_engine(self):
        # The witness is not decoration: replaying it through a real
        # PdpEngine reproduces the recorded decision.
        for subject in (shadowed_policy(), masked_policy()):
            engine = PdpEngine(PolicyStore(indexed=False))
            engine.store.add(subject)
            for finding in analyze(subject).findings:
                if finding.witness is None:
                    continue
                assert engine.decide(finding.witness) is finding.witness_decision

    def test_error_capable_rules_are_not_reported_redundant(self):
        # must_be_present makes the covering rule error-capable: its
        # Indeterminate can change the combined outcome, so the static
        # redundancy claim is withheld.
        policy = Policy(
            policy_id="p",
            rule_combining=combining.RULE_DENY_OVERRIDES,
            rules=(
                permit_rule(
                    "guarded",
                    condition=Condition(
                        apply_(
                            functions.FUNCTION_PREFIX_1_0 + "string-is-in",
                            literal(string("admin")),
                            Designator(
                                AttributeDesignator(
                                    Category.SUBJECT,
                                    SUBJECT_ROLE,
                                    DataType.STRING,
                                    must_be_present=True,
                                )
                            ),
                        )
                    ),
                ),
                permit_rule("plain", condition=role_condition("admin")),
            ),
        )
        report = analyze(policy)
        assert of_kind(report, FindingKind.REDUNDANT_RULE) == []


class TestMetricsAndStats:
    def test_stats_account_for_work(self):
        report = analyze(shadowed_policy())
        assert report.stats.elements_analyzed == 1
        assert report.stats.rules_analyzed == 2
        assert report.stats.pairs_considered >= 1


class TestStoreAnalysis:
    def test_store_analysis_resolves_references(self):
        store = PolicyStore(indexed=False)
        store.add(clean_policy("leaf"))
        store.add(
            PolicySet(
                policy_set_id="via-ref",
                policy_combining=combining.POLICY_ONLY_ONE_APPLICABLE,
                children=(
                    PolicyReference("leaf"),
                    clean_policy("direct"),
                ),
            )
        )
        report = analyze(store)
        findings = of_kind(report, FindingKind.ONLY_ONE_APPLICABLE_OVERLAP)
        assert any(f.location == "policySet[via-ref]" for f in findings)

    def test_engine_analyze_covers_store_level_conflicts(self):
        deny = Policy(
            policy_id="deny-admins",
            target=subject_resource_action_target(resource_id="db", action_id="read"),
            rules=(deny_rule("deny-admin", condition=role_condition("admin")),),
        )
        engine = PdpEngine(PolicyStore(indexed=False))
        engine.store.add(clean_policy("permits"))
        engine.store.add(deny)
        report = engine.analyze()
        assert len(of_kind(report, FindingKind.CROSS_POLICY_CONFLICT)) == 1


class TestStoreAdmission:
    def test_a_store_accepts_a_policy_with_findings(self):
        store = PolicyStore(indexed=False)
        store.add(shadowed_policy())
        assert len(store) == 1


class TestReportRendering:
    def test_json_roundtrip(self):
        report = analyze(shadowed_policy())
        payload = json.loads(report.to_json())
        assert payload["findings"][0]["kind"] == "shadowed-rule"
        assert "witness" in payload["findings"][0]
        assert payload["stats"]["elements_analyzed"] == 1

    def test_text_rendering_mentions_witness_and_totals(self):
        text = analyze(shadowed_policy()).render_text()
        assert "shadowed-rule" in text
        assert "witness:" in text
        assert "pairs considered" in text

    def test_clean_report_says_no_findings(self):
        assert "no findings" in analyze(clean_policy()).render_text()


class TestCli:
    def test_no_input_is_a_usage_error(self, capsys):
        assert cli_main([]) == 2

    def test_generated_corpus_is_clean(self, capsys):
        assert cli_main(["--generated", "40"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_defective_file_fails_the_gate(self, tmp_path, capsys):
        from repro.xacml.serializer import serialize_policy

        path = tmp_path / "shadowed.xml"
        path.write_text(serialize_policy(shadowed_policy()))
        assert cli_main([str(path)]) == 1
        assert "shadowed-rule" in capsys.readouterr().out

    def test_fail_on_never_reports_but_passes(self, tmp_path, capsys):
        from repro.xacml.serializer import serialize_policy

        path = tmp_path / "shadowed.xml"
        path.write_text(serialize_policy(shadowed_policy()))
        assert cli_main([str(path), "--fail-on", "never"]) == 0

    def test_json_format(self, tmp_path, capsys):
        from repro.xacml.serializer import serialize_policy

        path = tmp_path / "clean.xml"
        path.write_text(serialize_policy(clean_policy()))
        assert cli_main([str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_unparseable_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "junk.xml"
        path.write_text("<not-xacml/>")
        assert cli_main([str(path)]) == 2
