"""Rules: the leaves of the XACML policy tree.

A rule has an effect (Permit or Deny), an optional target narrowing its
applicability and an optional boolean condition.  Rules only exist inside
policies; their decisions are merged by rule-combining algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .combining import (
    DENY_OUTCOME,
    NOT_APPLICABLE_OUTCOME,
    Outcome,
    PERMIT_OUTCOME,
)
from .context import Decision, Status
from .expressions import Condition, EvaluationContext, Indeterminate
from .targets import ANY_TARGET, MatchResult, Target


class Effect:
    """The two rule effects, as Decision members for direct reuse."""

    PERMIT = Decision.PERMIT
    DENY = Decision.DENY


@dataclass(frozen=True, slots=True)
class RuleResult:
    """Outcome of evaluating one rule."""

    decision: Decision
    status: Optional[Status] = None


@dataclass(frozen=True, slots=True)
class Rule:
    """A single access control rule.

    Evaluation (XACML 2.0 §7.9):

    * target NO_MATCH        -> NotApplicable
    * target INDETERMINATE   -> Indeterminate
    * condition False        -> NotApplicable
    * condition error        -> Indeterminate
    * otherwise              -> the rule's effect
    """

    rule_id: str
    effect: Decision
    target: Target = ANY_TARGET
    condition: Optional[Condition] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.effect not in (Decision.PERMIT, Decision.DENY):
            raise ValueError(
                f"rule effect must be Permit or Deny, got {self.effect.value}"
            )

    def outcome(self, ctx: EvaluationContext) -> Outcome:
        """The rule's ``(decision, status)``, as combiners consume it.

        A target with no groups matches everything and is not evaluated.
        """
        if self.target.any_ofs:
            try:
                match = self.target.evaluate(ctx)
            except Indeterminate as exc:
                return Decision.INDETERMINATE, exc.status
            if match is MatchResult.NO_MATCH:
                return NOT_APPLICABLE_OUTCOME
            if match is MatchResult.INDETERMINATE:
                return (
                    Decision.INDETERMINATE,
                    Status(message=f"target of rule {self.rule_id} indeterminate"),
                )
        if self.condition is not None:
            try:
                satisfied = self.condition.evaluate(ctx)
            except Indeterminate as exc:
                return Decision.INDETERMINATE, exc.status
            if not satisfied:
                return NOT_APPLICABLE_OUTCOME
        return PERMIT_OUTCOME if self.effect is Decision.PERMIT else DENY_OUTCOME

    def evaluate(self, ctx: EvaluationContext) -> RuleResult:
        return RuleResult(*self.outcome(ctx))

    def __repr__(self) -> str:
        return f"Rule({self.rule_id}, {self.effect.value})"


def permit_rule(
    rule_id: str,
    target: Target = ANY_TARGET,
    condition: Optional[Condition] = None,
) -> Rule:
    return Rule(rule_id, Decision.PERMIT, target, condition)


def deny_rule(
    rule_id: str,
    target: Target = ANY_TARGET,
    condition: Optional[Condition] = None,
) -> Rule:
    return Rule(rule_id, Decision.DENY, target, condition)
