"""Structural validation of policies before deployment.

The paper's management challenge (Section 3.2) lists "writing, reviewing,
testing, approving" among the policy lifecycle steps; this module is the
*testing* step's static half.  It reports problems — unknown functions or
algorithms, unreachable rules, empty policies — without evaluating
anything, so PAPs can reject broken policies before syndication spreads
them (experiment E5's hierarchy would otherwise amplify a bad push).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import combining, functions
from .expressions import (
    AllOfFunction,
    AnyOfFunction,
    Apply,
    Designator,
    Expression,
    Literal,
)
from .policy import Policy, PolicySet
from .rules import Rule


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    severity: Severity
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.location}: {self.message}"


def _check_expression(
    expression: Expression, location: str, issues: list[ValidationIssue]
) -> None:
    if isinstance(expression, Apply):
        if expression.function_id not in functions.known_functions():
            issues.append(
                ValidationIssue(
                    Severity.ERROR,
                    location,
                    f"unknown function {expression.function_id!r}",
                )
            )
        for index, argument in enumerate(expression.arguments):
            _check_expression(argument, f"{location}/arg[{index}]", issues)
    elif isinstance(expression, (AnyOfFunction, AllOfFunction)):
        if expression.function_id not in functions.known_functions():
            issues.append(
                ValidationIssue(
                    Severity.ERROR,
                    location,
                    f"unknown inner function {expression.function_id!r}",
                )
            )
        _check_expression(expression.value, f"{location}/value", issues)
        _check_expression(expression.bag, f"{location}/bag", issues)
    elif isinstance(expression, (Literal, Designator)):
        pass
    else:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                location,
                f"unsupported expression node {type(expression).__name__}",
            )
        )


def _check_rule(rule: Rule, location: str, issues: list[ValidationIssue]) -> None:
    for any_index, any_of in enumerate(rule.target.any_ofs):
        if not any_of.all_ofs:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    f"{location}/target/anyOf[{any_index}]",
                    "empty AnyOf never matches; rule is unreachable",
                )
            )
        for all_index, all_of in enumerate(any_of.all_ofs):
            for match_index, match in enumerate(all_of.matches):
                if match.match_function not in functions.known_functions():
                    issues.append(
                        ValidationIssue(
                            Severity.ERROR,
                            f"{location}/target/anyOf[{any_index}]"
                            f"/allOf[{all_index}]/match[{match_index}]",
                            f"unknown match function {match.match_function!r}",
                        )
                    )
                elif match.value.data_type is not match.designator.data_type:
                    issues.append(
                        ValidationIssue(
                            Severity.ERROR,
                            f"{location}/target/anyOf[{any_index}]"
                            f"/allOf[{all_index}]/match[{match_index}]",
                            "match literal and designator data types differ "
                            f"({match.value.data_type.name} vs "
                            f"{match.designator.data_type.name})",
                        )
                    )
    if rule.condition is not None:
        _check_expression(rule.condition.expression, f"{location}/condition", issues)


def validate_policy(policy: Policy) -> list[ValidationIssue]:
    """Validate a single policy; returns a list of issues (empty == clean)."""
    issues: list[ValidationIssue] = []
    location = f"policy[{policy.policy_id}]"
    if policy.rule_combining not in combining.known_algorithms():
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                location,
                f"unknown rule combining algorithm {policy.rule_combining!r}",
            )
        )
    if not policy.rules:
        issues.append(
            ValidationIssue(
                Severity.WARNING, location, "policy has no rules; never applicable"
            )
        )
    first_unconditional: str | None = None
    for rule in policy.rules:
        rule_location = f"{location}/rule[{rule.rule_id}]"
        _check_rule(rule, rule_location, issues)
        is_unconditional = rule.target.matches_everything and rule.condition is None
        if (
            first_unconditional is not None
            and policy.rule_combining == combining.RULE_FIRST_APPLICABLE
        ):
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    rule_location,
                    "unreachable: follows unconditional rule "
                    f"{first_unconditional!r} under first-applicable",
                )
            )
        if is_unconditional and first_unconditional is None:
            first_unconditional = rule.rule_id
    return issues


#: Resolves a ``PolicyReference`` id to the referenced element (the
#: signature of ``PolicyStore.get``).
Resolver = Callable[[str], object]


def validate_policy_set(
    policy_set: PolicySet,
    resolver: Optional[Resolver] = None,
    _reference_stack: Optional[set[str]] = None,
) -> list[ValidationIssue]:
    """Validate a policy set and everything beneath it.

    With a ``resolver``, ``PolicyReference`` children are resolved and
    validated through — composability the reference mechanism otherwise
    hides from pre-deployment checking.  An unresolvable or cyclic
    reference is an ERROR (it would evaluate Indeterminate at runtime);
    without a resolver, references keep their advisory WARNING.
    """
    issues: list[ValidationIssue] = []
    location = f"policySet[{policy_set.policy_set_id}]"
    stack = _reference_stack if _reference_stack is not None else set()
    if policy_set.policy_combining not in combining.known_algorithms():
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                location,
                f"unknown policy combining algorithm "
                f"{policy_set.policy_combining!r}",
            )
        )
    if not policy_set.children:
        issues.append(
            ValidationIssue(
                Severity.WARNING, location, "policy set has no children"
            )
        )
    from .policy import PolicyReference

    for child in policy_set.children:
        if isinstance(child, PolicyReference):
            reference_location = f"{location}/reference[{child.reference_id}]"
            if resolver is None:
                issues.append(
                    ValidationIssue(
                        Severity.WARNING,
                        reference_location,
                        "policy reference resolves only at evaluation time "
                        "against the deploying engine's store",
                    )
                )
                continue
            if child.reference_id in stack:
                issues.append(
                    ValidationIssue(
                        Severity.ERROR,
                        reference_location,
                        "cyclic policy reference; evaluates Indeterminate",
                    )
                )
                continue
            resolved = resolver(child.reference_id)
            if not isinstance(resolved, (Policy, PolicySet)):
                issues.append(
                    ValidationIssue(
                        Severity.ERROR,
                        reference_location,
                        "unresolvable policy reference; "
                        "evaluates Indeterminate",
                    )
                )
                continue
            stack.add(child.reference_id)
            try:
                issues.extend(
                    validate(resolved, resolver=resolver, _reference_stack=stack)
                )
            finally:
                stack.discard(child.reference_id)
            continue
        issues.extend(
            validate(child, resolver=resolver, _reference_stack=stack)
        )
    return issues


def validate(
    element: Union[Policy, PolicySet],
    resolver: Optional[Resolver] = None,
    _reference_stack: Optional[set[str]] = None,
) -> list[ValidationIssue]:
    if isinstance(element, Policy):
        return validate_policy(element)
    return validate_policy_set(
        element, resolver=resolver, _reference_stack=_reference_stack
    )


def is_deployable(element: Union[Policy, PolicySet]) -> bool:
    """True when no ERROR issue exists: warnings advise, they do not
    stop deployment."""
    return not any(issue.severity is Severity.ERROR for issue in validate(element))
