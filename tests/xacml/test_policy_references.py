"""Tests for PolicyIdReference: composing policies from distributed sources.

Paper §2.3: "policies can be composed of a variety of distributed
policies and rules that can be possibly managed by different
organisational units" — references are the mechanism that composition
rides on.
"""


from repro.xacml import (
    EvaluationContext,
    Decision,
    PdpEngine,
    Policy,
    PolicyReference,
    PolicySet,
    RequestContext,
    Severity,
    combining,
    deny_rule,
    evaluate_element,
    parse_policy,
    permit_rule,
    serialize_policy,
    subject_resource_action_target,
    validate,
)


def alice_policy():
    return Policy(
        policy_id="alice-policy",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def referring_set(reference_id="alice-policy"):
    return PolicySet(
        policy_set_id="via-reference",
        children=(PolicyReference(reference_id=reference_id),),
        policy_combining=combining.POLICY_FIRST_APPLICABLE,
    )


class TestResolution:
    def test_reference_resolves_through_engine_store(self):
        engine = PdpEngine()
        engine.add_policy(alice_policy())
        engine.add_policy(referring_set())
        # Both the concrete policy and the referring set apply; they agree.
        request = RequestContext.simple("alice", "r", "read")
        assert engine.decide(request) is Decision.PERMIT
        request_eve = RequestContext.simple("eve", "r", "read")
        assert engine.decide(request_eve) is Decision.DENY

    def test_unresolvable_reference_is_indeterminate(self):
        result = referring_set("ghost-policy").evaluate(
            EvaluationContext(
                request=RequestContext.simple("alice", "r", "read"),
                reference_resolver=lambda identifier: None,
            )
        )
        assert result.decision is Decision.INDETERMINATE
        assert "unresolvable" in result.status.message

    def test_no_resolver_is_indeterminate(self):
        result = evaluate_element(
            referring_set(), RequestContext.simple("alice", "r", "read")
        )
        assert result.decision is Decision.INDETERMINATE

    def test_cyclic_reference_detected(self):
        # A set that references itself (via the engine store).
        cyclic = PolicySet(
            policy_set_id="narcissus",
            children=(PolicyReference(reference_id="narcissus"),),
            policy_combining=combining.POLICY_FIRST_APPLICABLE,
        )
        engine = PdpEngine()
        engine.add_policy(cyclic)
        response = engine.evaluate(RequestContext.simple("a", "r", "read"))
        assert response.decision is Decision.INDETERMINATE
        assert "cyclic" in response.response.result.status.message

    def test_mutual_cycle_detected(self):
        a = PolicySet(
            policy_set_id="set-a",
            children=(PolicyReference(reference_id="set-b"),),
        )
        b = PolicySet(
            policy_set_id="set-b",
            children=(PolicyReference(reference_id="set-a"),),
        )
        engine = PdpEngine()
        engine.add_policy(a)
        engine.add_policy(b)
        response = engine.evaluate(RequestContext.simple("a", "r", "read"))
        assert response.decision is Decision.INDETERMINATE

    def test_obligations_flow_through_references(self):
        from repro.xacml import Obligation

        obligation = Obligation("urn:test:log", Decision.PERMIT)
        target_policy = Policy(
            policy_id="with-ob",
            rules=(permit_rule("r"),),
            obligations=(obligation,),
        )
        engine = PdpEngine()
        engine.add_policy(target_policy)
        engine.add_policy(
            PolicySet(
                policy_set_id="ref-set",
                children=(PolicyReference(reference_id="with-ob"),),
                policy_combining=combining.POLICY_PERMIT_OVERRIDES,
            )
        )
        response = engine.evaluate(RequestContext.simple("a", "r", "read"))
        assert response.decision is Decision.PERMIT
        assert obligation in response.response.result.obligations


class TestCodec:
    def test_reference_roundtrip(self):
        policy_set = referring_set()
        reparsed = parse_policy(serialize_policy(policy_set))
        assert reparsed == policy_set
        assert "<PolicyIdReference>alice-policy</PolicyIdReference>" in (
            serialize_policy(policy_set)
        )

    def test_validation_flags_references_as_warnings(self):
        issues = validate(referring_set())
        assert any(
            issue.severity is Severity.WARNING and "reference" in issue.message
            for issue in issues
        )
        # Warnings only: still deployable.
        from repro.xacml import is_deployable

        assert is_deployable(referring_set())

    def test_flatten_skips_references(self):
        mixed = PolicySet(
            policy_set_id="mixed",
            children=(alice_policy(), PolicyReference(reference_id="other")),
        )
        assert [p.policy_id for p in mixed.flatten()] == ["alice-policy"]


class TestDistributedComposition:
    def test_vo_set_referencing_domain_policies(self):
        """The paper's composition story: a VO-level set references
        policies administered by different organisational units."""
        engine = PdpEngine()
        for unit in ("physics", "chemistry"):
            engine.add_policy(
                Policy(
                    policy_id=f"{unit}-policy",
                    rules=(
                        permit_rule(
                            "unit-resource",
                            subject_resource_action_target(
                                resource_id=f"{unit}-data"
                            ),
                        ),
                    ),
                )
            )
        engine.add_policy(
            PolicySet(
                policy_set_id="vo-composition",
                children=(
                    PolicyReference(reference_id="physics-policy"),
                    PolicyReference(reference_id="chemistry-policy"),
                ),
                policy_combining=combining.POLICY_PERMIT_OVERRIDES,
            )
        )
        for unit in ("physics", "chemistry"):
            request = RequestContext.simple("anyone", f"{unit}-data", "read")
            assert engine.decide(request) is Decision.PERMIT
