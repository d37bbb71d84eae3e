"""E8 — §3.1 Policy conflicts: static analysis, combining, meta-policies.

Paper claims: (a) static analysis finds modality conflicts ("a positive
and negative policy with the same subjects, targets and actions") before
deployment; (b) XACML resolves runtime overlaps with its four combining
algorithms; (c) application-specific conflicts (SoD, Chinese Wall) "are
usually visible only at runtime" and need meta-policies.
"""

from repro.admin import ChineseWallMetaPolicy, MetaPolicyEngine
from repro.bench import Experiment
from repro.models import ChineseWallEngine
from repro.workloads import PolicyCorpusSpec, generate_policy_corpus
from repro.xacml import (
    Decision,
    PdpEngine,
    Policy,
    PolicySet,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)
from repro.xacml.analysis import find_modality_conflicts


#: E8a's corpora: (generated policies, injected conflicts); the seed is
#: the corpus size.
CORPORA = ((20, 3), (50, 5), (100, 8))


def scan_corpus(corpus_size: int, injected_count: int) -> dict:
    """E8a's row: the static scan over one generated corpus."""
    policies, injected = generate_policy_corpus(
        PolicyCorpusSpec(
            policies=corpus_size,
            injected_conflicts=injected_count,
            seed=corpus_size,
        )
    )
    findings = find_modality_conflicts(policies)
    actual = [f for f in findings if f.kind == "actual"]
    injected_found = sum(
        1 for finding in actual if "inj" in finding.a.rule_id or "inj" in finding.b.rule_id
    )
    return {
        "policies": len(policies),
        "rules": sum(len(p.rules) for p in policies),
        "actual": len(actual),
        "potential": len(findings) - len(actual),
        "injected": injected,
        "recovered": min(injected_found, injected),
    }


def test_e8_static_conflict_detection(benchmark):
    experiment = Experiment(
        exp_id="E8a",
        title="Static modality-conflict analysis over policy corpora",
        paper_claim="pre-deployment analysis enumerates conflicting "
        "{subject, action, target} tuples; injected conflicts are found",
        columns=["policies", "rules", "actual", "potential", "injected", "recall"],
    )
    for corpus_size, injected_count in CORPORA:
        row = scan_corpus(corpus_size, injected_count)
        experiment.add_row(
            row["policies"],
            row["rules"],
            row["actual"],
            row["potential"],
            row["injected"],
            f"{row['recovered']}/{row['injected']}",
        )
        # Shape: every injected conflict is recovered.
        assert row["recovered"] == row["injected"]
    experiment.show()

    policies, _ = generate_policy_corpus(
        PolicyCorpusSpec(policies=100, injected_conflicts=8, seed=100)
    )
    benchmark(lambda: find_modality_conflicts(policies))


def test_e8_combining_algorithm_resolution(benchmark):
    target = subject_resource_action_target(
        subject_id="alice", resource_id="doc", action_id="read"
    )
    allow = Policy(policy_id="allow", rules=(permit_rule("p", target),))
    deny = Policy(policy_id="deny", rules=(deny_rule("d", target),))
    request = RequestContext.simple("alice", "doc", "read")

    experiment = Experiment(
        exp_id="E8b",
        title="Conflict resolution by XACML policy-combining algorithm",
        paper_claim="deny-overrides, permit-overrides, first-applicable and "
        "only-one-applicable deterministically resolve the same conflict",
        columns=["algorithm", "decision"],
    )
    expectations = {
        combining.POLICY_DENY_OVERRIDES: Decision.DENY,
        combining.POLICY_PERMIT_OVERRIDES: Decision.PERMIT,
        combining.POLICY_FIRST_APPLICABLE: Decision.PERMIT,  # allow listed first
        combining.POLICY_ONLY_ONE_APPLICABLE: Decision.INDETERMINATE,
    }
    for algorithm, expected in expectations.items():
        policy_set = PolicySet(
            policy_set_id=f"set-{algorithm.rsplit(':', 1)[-1]}",
            children=(allow, deny),
            policy_combining=algorithm,
        )
        engine = PdpEngine()
        engine.add_policy(policy_set)
        decision = engine.decide(request)
        experiment.add_row(algorithm.rsplit(":", 1)[-1], decision.value)
        assert decision is expected, algorithm
    experiment.show()

    resolver = PdpEngine()
    resolver.add_policy(
        PolicySet(
            policy_set_id="bench-set",
            children=(allow, deny),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
    )
    benchmark(lambda: resolver.decide(request))


def test_e8_runtime_meta_policy_conflicts(benchmark):
    """Static analysis is blind to history-dependent conflicts; the
    runtime meta-policy engine catches them."""
    bank_a = Policy(
        policy_id="bank-a",
        rules=(permit_rule("p", subject_resource_action_target(resource_id="bank-a")),),
    )
    bank_b = Policy(
        policy_id="bank-b",
        rules=(permit_rule("p", subject_resource_action_target(resource_id="bank-b")),),
    )
    static_findings = find_modality_conflicts([bank_a, bank_b])

    wall = ChineseWallEngine()
    wall.register_dataset("bank-a", "banking")
    wall.register_dataset("bank-b", "banking")
    meta = MetaPolicyEngine()
    meta.add(ChineseWallMetaPolicy("vo-wall", wall))

    first, _ = meta.guard_decision(
        Decision.PERMIT, RequestContext.simple("consultant", "bank-a", "read"), 0.0
    )
    second, veto = meta.guard_decision(
        Decision.PERMIT, RequestContext.simple("consultant", "bank-b", "read"), 1.0
    )

    experiment = Experiment(
        exp_id="E8c",
        title="Application-specific conflicts: static analysis vs runtime wall",
        paper_claim="SoD/Chinese-Wall conflicts escape static analysis and "
        "are caught only by runtime meta-policies",
        columns=["check", "result"],
    )
    experiment.add_row("static modality conflicts found", len(static_findings))
    experiment.add_row("first access (bank-a)", first.value)
    experiment.add_row("second access (bank-b)", f"{second.value}: {veto.reason}")
    experiment.show()

    assert static_findings == []          # static analysis sees nothing...
    assert first is Decision.PERMIT
    assert second is Decision.DENY        # ...the runtime wall fires.

    benchmark(
        lambda: meta.check_all(
            RequestContext.simple("consultant", "bank-b", "read"), 2.0
        )
    )
