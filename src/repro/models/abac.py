"""Attribute-Based Access Control: rule builder over attribute predicates.

The paper argues (Section 2.1) that in dynamic environments "access
relationships may not involve an explicitly named set of individuals but
may be defined implicitly by authorisation policies ... for participants
with certain capabilities or levels of trust rather than for those that
have specific identity credentials".  ABAC is that style; this module
gives it a compact Python front-end that compiles to ordinary XACML
policies.

Example:
    >>> rule = (AbacRuleBuilder("allow-local-researchers")
    ...         .permit()
    ...         .when_subject("urn:oasis:names:tc:xacml:2.0:subject:role",
    ...                       "researcher")
    ...         .when_action("read")
    ...         .build())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..xacml import combining
from ..xacml.attributes import (
    ACTION_ID,
    Category,
    DataType,
    string,
)
from ..xacml.expressions import (
    Condition,
    Expression,
    apply_,
    designator,
    literal,
)
from ..xacml.functions import FUNCTION_PREFIX_1_0
from ..xacml.policy import Policy
from ..xacml.rules import Rule, deny_rule
from ..xacml.targets import Target, match_equal, target_of
from ..xacml.context import Decision


class AbacError(Exception):
    """Raised when a builder is used inconsistently."""


class AbacRuleBuilder:
    """Fluent builder producing a single XACML rule from predicates."""

    def __init__(self, rule_id: str) -> None:
        self.rule_id = rule_id
        self._effect: Optional[Decision] = None
        self._conjuncts: list[Expression] = []
        self._target_matches = []
        self._description = ""

    def permit(self) -> "AbacRuleBuilder":
        self._effect = Decision.PERMIT
        return self

    def deny(self) -> "AbacRuleBuilder":
        self._effect = Decision.DENY
        return self

    def describe(self, text: str) -> "AbacRuleBuilder":
        self._description = text
        return self

    # -- predicates ---------------------------------------------------------------

    def _attribute_in(
        self, category: Category, attribute_id: str, values: Iterable[str]
    ) -> "AbacRuleBuilder":
        value_list = list(values)
        if not value_list:
            raise AbacError(f"{self.rule_id}: empty value set for {attribute_id}")
        bag = designator(category, attribute_id, DataType.STRING)
        disjuncts = [
            apply_(
                f"{FUNCTION_PREFIX_1_0}string-is-in",
                literal(string(value)),
                bag,
            )
            for value in value_list
        ]
        if len(disjuncts) == 1:
            self._conjuncts.append(disjuncts[0])
        else:
            self._conjuncts.append(
                apply_(f"{FUNCTION_PREFIX_1_0}or", *disjuncts)
            )
        return self

    def when_subject(
        self, attribute_id: str, *values: str
    ) -> "AbacRuleBuilder":
        return self._attribute_in(Category.SUBJECT, attribute_id, values)

    def when_action(self, *actions: str) -> "AbacRuleBuilder":
        """Restrict to named actions (target match, indexable)."""
        for action in actions:
            self._target_matches.append(
                match_equal(Category.ACTION, ACTION_ID, string(action))
            )
        return self

    # -- build ------------------------------------------------------------------------

    def build(self) -> Rule:
        if self._effect is None:
            raise AbacError(f"{self.rule_id}: effect not set (permit()/deny())")
        condition: Optional[Condition] = None
        if self._conjuncts:
            expression = (
                self._conjuncts[0]
                if len(self._conjuncts) == 1
                else apply_(f"{FUNCTION_PREFIX_1_0}and", *self._conjuncts)
            )
            condition = Condition(expression)
        target = target_of(*self._target_matches) if self._target_matches else Target()
        return Rule(
            rule_id=self.rule_id,
            effect=self._effect,
            target=target,
            condition=condition,
            description=self._description,
        )


@dataclass
class AbacPolicyBuilder:
    """Collects ABAC rules into one XACML policy."""

    policy_id: str
    rule_combining: str = combining.RULE_FIRST_APPLICABLE
    description: str = ""
    _rules: list[Rule] = field(default_factory=list)
    _target: Target = field(default_factory=Target)

    def rule(self, rule: Rule) -> "AbacPolicyBuilder":
        self._rules.append(rule)
        return self

    def for_resource(self, resource_id: str) -> "AbacPolicyBuilder":
        from ..xacml.attributes import RESOURCE_ID

        self._target = target_of(
            match_equal(Category.RESOURCE, RESOURCE_ID, string(resource_id))
        )
        return self

    def default_deny(self) -> "AbacPolicyBuilder":
        self._rules.append(deny_rule(f"{self.policy_id}-default-deny"))
        return self

    def build(self) -> Policy:
        if not self._rules:
            raise AbacError(f"{self.policy_id}: no rules added")
        return Policy(
            policy_id=self.policy_id,
            rules=tuple(self._rules),
            rule_combining=self.rule_combining,
            target=self._target,
            description=self.description,
        )
