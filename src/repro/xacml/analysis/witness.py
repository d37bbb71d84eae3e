"""Witness synthesis and engine replay: the analyzer's trust anchor.

Every finding that claims concrete runtime behaviour — a rule that never
fires, a permit that can never win, an only-one-applicable overlap — is
backed by a synthesized :class:`RequestContext` drawn from the static
overlap clause and *replayed through the real evaluation machinery*.  If
the replay does not reproduce the claim, the candidate finding is
suppressed and counted; reported findings are therefore free of static
false positives by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .. import combining
from ..attributes import Attribute
from ..context import Decision, RequestContext
from ..expressions import EvaluationContext
from ..policy import Policy, PolicyChild, PolicySet, outcomes
from ..rules import Rule
from .predicates import Clause

#: Resolver signature matching ``PolicyStore.get``.
Resolver = Callable[[str], Optional[object]]


@dataclass(frozen=True)
class WitnessOutcome:
    """Result of trying to back one candidate finding with a witness."""

    ok: bool
    request: Optional[RequestContext] = None
    decision: Optional[Decision] = None
    #: "" on success; "unsynthesizable" when no concrete request could be
    #: drawn from the clause; "replay-mismatch" when the engine disagreed.
    reason: str = ""


_UNSYNTHESIZABLE = WitnessOutcome(ok=False, reason="unsynthesizable")


def request_from_clause(clause: Clause) -> Optional[RequestContext]:
    """Build a concrete request satisfying every constraint in a clause."""
    values = clause.sample()
    if values is None:
        return None
    request = RequestContext()
    for (category, attribute_id, _data_type, issuer), value in values.items():
        request.add(category, Attribute.of(attribute_id, value, issuer=issuer))
    return request


def _evaluation_context(
    request: RequestContext, resolver: Optional[Resolver]
) -> EvaluationContext:
    return EvaluationContext(request=request, reference_resolver=resolver)


def _rule_fires(rule: Rule, request: RequestContext) -> bool:
    result = rule.evaluate(_evaluation_context(request, None))
    return result.decision is rule.effect


def _policy_decision(
    policy: Policy, request: RequestContext, resolver: Optional[Resolver]
) -> Decision:
    return policy.evaluate(_evaluation_context(request, resolver)).decision


def _without_rule(policy: Policy, rule_id: str) -> Policy:
    return replace(
        policy,
        rules=tuple(rule for rule in policy.rules if rule.rule_id != rule_id),
    )


def verify_rule_shadowed(
    policy: Policy, shadowed: Rule, clause: Clause
) -> WitnessOutcome:
    """The shadowed rule fires in isolation, yet the policy decides
    something other than its effect."""
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE
    if not _rule_fires(shadowed, request):
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    decision = _policy_decision(policy, request, None)
    if decision is shadowed.effect:
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    return WitnessOutcome(ok=True, request=request, decision=decision)


def verify_rule_redundant(
    policy: Policy, redundant: Rule, clause: Clause
) -> WitnessOutcome:
    """The redundant rule fires in isolation, and removing it leaves the
    policy's decision on the witness unchanged."""
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE
    if not _rule_fires(redundant, request):
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    decision = _policy_decision(policy, request, None)
    without = _policy_decision(_without_rule(policy, redundant.rule_id), request, None)
    if decision is not without:
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    return WitnessOutcome(ok=True, request=request, decision=decision)


def verify_rule_masked(
    policy: Policy, masked: Rule, clause: Clause
) -> WitnessOutcome:
    """The masked rule fires in isolation, yet its effect never surfaces."""
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE
    if not _rule_fires(masked, request):
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    decision = _policy_decision(policy, request, None)
    if decision is masked.effect:
        return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")
    return WitnessOutcome(ok=True, request=request, decision=decision)


def _element_decision(
    element: PolicyChild, request: RequestContext, resolver: Optional[Resolver]
) -> tuple[Decision, str]:
    result = element.evaluate(_evaluation_context(request, resolver))
    message = result.status.message if result.status is not None else ""
    return result.decision, message


def verify_only_one_overlap(
    policy_set: PolicySet, clause: Clause, resolver: Optional[Resolver]
) -> WitnessOutcome:
    """The set evaluates Indeterminate because more than one child applies."""
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE
    decision, message = _element_decision(policy_set, request, resolver)
    if decision is Decision.INDETERMINATE and "more than one" in message:
        return WitnessOutcome(ok=True, request=request, decision=decision)
    return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")


def verify_store_only_one_overlap(
    elements: Sequence[PolicyChild],
    clause: Clause,
    resolver: Optional[Resolver],
) -> WitnessOutcome:
    """Store-level variant: wrap the top elements in the only-one-applicable
    combiner exactly as the engine would."""
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE
    combiner = combining.lookup(combining.POLICY_ONLY_ONE_APPLICABLE)
    decision, status = combiner(
        outcomes(elements, _evaluation_context(request, resolver), [])
    )
    message = status.message if status is not None else ""
    if decision is Decision.INDETERMINATE and "more than one" in message:
        return WitnessOutcome(ok=True, request=request, decision=decision)
    return WitnessOutcome(ok=False, request=request, reason="replay-mismatch")


def verify_cross_conflict(
    first: PolicyChild,
    second: PolicyChild,
    clause: Clause,
    resolver: Optional[Resolver],
) -> tuple[WitnessOutcome, Optional[Decision], Optional[Decision]]:
    """Both children decide definitively — and oppositely — on the witness.

    Returns the outcome plus each child's individual decision so the
    finding message can name who permits and who denies.
    """
    request = request_from_clause(clause)
    if request is None:
        return _UNSYNTHESIZABLE, None, None
    first_decision, _ = _element_decision(first, request, resolver)
    second_decision, _ = _element_decision(second, request, resolver)
    definitive = first_decision.is_definitive and second_decision.is_definitive
    if definitive and first_decision is not second_decision:
        return (
            WitnessOutcome(ok=True, request=request, decision=first_decision),
            first_decision,
            second_decision,
        )
    return (
        WitnessOutcome(ok=False, request=request, reason="replay-mismatch"),
        first_decision,
        second_decision,
    )
