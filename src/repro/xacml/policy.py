"""Policies and policy sets: the interior of the XACML policy tree.

A :class:`Policy` combines rules with a rule-combining algorithm; a
:class:`PolicySet` combines policies (and nested policy sets) with a
policy-combining algorithm.  Both carry targets, obligations, versions and
an optional issuer — the issuer field is what the Administration &
Delegation profile (:mod:`repro.admin.delegation`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from . import combining
from .context import Decision, Obligation, Status
from .expressions import EvaluationContext, Indeterminate
from .rules import Rule
from .targets import ANY_TARGET, MatchResult, Target


@dataclass(frozen=True, slots=True)
class PolicyResult:
    """Outcome of evaluating a policy or policy set, with obligations."""

    decision: Decision
    status: Optional[Status] = None
    obligations: tuple[Obligation, ...] = ()


#: The bare results — no status, no obligations — shared (frozen).
_NOT_APPLICABLE = PolicyResult(Decision.NOT_APPLICABLE)
_PERMIT = PolicyResult(Decision.PERMIT)
_DENY = PolicyResult(Decision.DENY)


def _result(
    decision: Decision,
    status: Optional[Status],
    obligations: tuple[Obligation, ...],
) -> PolicyResult:
    if status is None and not obligations:
        if decision is Decision.PERMIT:
            return _PERMIT
        if decision is Decision.NOT_APPLICABLE:
            return _NOT_APPLICABLE
        if decision is Decision.DENY:
            return _DENY
    return PolicyResult(decision, status, obligations)


@dataclass(frozen=True, slots=True)
class Policy:
    """A policy: target + rules + rule-combining algorithm + obligations."""

    policy_id: str
    rules: tuple[Rule, ...]
    rule_combining: str = combining.RULE_DENY_OVERRIDES
    target: Target = ANY_TARGET
    obligations: tuple[Obligation, ...] = ()
    description: str = ""
    version: str = "1.0"
    issuer: Optional[str] = None
    _combiner: combining.Combiner = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.policy_id:
            raise ValueError("policy_id must be non-empty")
        # Fails fast on bad identifiers; the registry refuses to
        # overwrite, so the algorithm found here is the one to keep.
        object.__setattr__(
            self, "_combiner", combining.lookup(self.rule_combining)
        )
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise ValueError(
                    f"duplicate rule id {rule.rule_id!r} in policy {self.policy_id!r}"
                )
            seen.add(rule.rule_id)

    def evaluate(self, ctx: EvaluationContext) -> PolicyResult:
        try:
            match = self.target.evaluate(ctx)
        except Indeterminate as exc:
            return PolicyResult(Decision.INDETERMINATE, exc.status)
        if match is MatchResult.NO_MATCH:
            return _NOT_APPLICABLE
        if match is MatchResult.INDETERMINATE:
            return PolicyResult(
                Decision.INDETERMINATE,
                Status(message=f"target of policy {self.policy_id} indeterminate"),
            )
        # Lazy: a rule is evaluated when the combiner pulls its outcome.
        decision, status = self._combiner(
            rule.outcome(ctx) for rule in self.rules
        )
        return _result(
            decision, status, _matching_obligations(self.obligations, decision)
        )

    def __repr__(self) -> str:
        return f"Policy({self.policy_id}, rules={len(self.rules)})"


@dataclass(frozen=True, slots=True)
class PolicyReference:
    """A by-id reference to a policy element stored elsewhere.

    XACML's ``PolicyIdReference``/``PolicySetIdReference``: the mechanism
    behind the paper's observation (§2.3) that "policies can be composed
    of a variety of distributed policies and rules that can be possibly
    managed by different organisational units".  References resolve at
    evaluation time against the engine's policy store; an unresolvable or
    cyclic reference evaluates Indeterminate (never silently skipped).
    """

    reference_id: str

    def evaluate(self, ctx: EvaluationContext) -> "PolicyResult":
        resolver = ctx.reference_resolver
        if resolver is None:
            return PolicyResult(
                Decision.INDETERMINATE,
                Status(message=f"no resolver for reference {self.reference_id!r}"),
            )
        if self.reference_id in ctx._reference_stack:
            return PolicyResult(
                Decision.INDETERMINATE,
                Status(
                    message=f"cyclic policy reference {self.reference_id!r}"
                ),
            )
        target = resolver(self.reference_id)
        if target is None:
            return PolicyResult(
                Decision.INDETERMINATE,
                Status(
                    message=f"unresolvable policy reference {self.reference_id!r}"
                ),
            )
        ctx._reference_stack.add(self.reference_id)
        try:
            return target.evaluate(ctx)
        finally:
            ctx._reference_stack.discard(self.reference_id)

    def __repr__(self) -> str:
        return f"PolicyReference({self.reference_id})"


PolicyChild = Union[Policy, "PolicySet", PolicyReference]


@dataclass(frozen=True, slots=True)
class PolicySet:
    """A policy set combining policies and nested sets."""

    policy_set_id: str
    children: tuple[PolicyChild, ...]
    policy_combining: str = combining.POLICY_DENY_OVERRIDES
    target: Target = ANY_TARGET
    obligations: tuple[Obligation, ...] = ()
    description: str = ""
    version: str = "1.0"
    issuer: Optional[str] = None
    _combiner: combining.Combiner = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.policy_set_id:
            raise ValueError("policy_set_id must be non-empty")
        object.__setattr__(
            self, "_combiner", combining.lookup(self.policy_combining)
        )
        seen: set[str] = set()
        for child in self.children:
            child_id = child_identifier(child)
            if child_id in seen:
                raise ValueError(
                    f"duplicate child id {child_id!r} in policy set "
                    f"{self.policy_set_id!r}"
                )
            seen.add(child_id)

    def evaluate(self, ctx: EvaluationContext) -> PolicyResult:
        try:
            match = self.target.evaluate(ctx)
        except Indeterminate as exc:
            return PolicyResult(Decision.INDETERMINATE, exc.status)
        if match is MatchResult.NO_MATCH:
            return _NOT_APPLICABLE
        if match is MatchResult.INDETERMINATE:
            return PolicyResult(
                Decision.INDETERMINATE,
                Status(
                    message=f"target of policy set {self.policy_set_id} indeterminate"
                ),
            )
        collected: list[Obligation] = []
        decision, status = self._combiner(
            outcomes(self.children, ctx, collected)
        )
        # Only obligations whose fulfill_on matches the final decision, plus
        # this set's own, flow upward (XACML §7.14).
        child_obligations = tuple(
            ob for ob in collected if ob.fulfill_on is decision
        )
        return _result(
            decision,
            status,
            child_obligations
            + _matching_obligations(self.obligations, decision),
        )

    def flatten(self) -> list[Policy]:
        """All *inline* leaf policies in document order.

        References are not followed (they resolve only against a store at
        evaluation time); static analyses that need referenced content
        should resolve them first.
        """
        out: list[Policy] = []
        for child in self.children:
            if isinstance(child, Policy):
                out.append(child)
            elif isinstance(child, PolicySet):
                out.extend(child.flatten())
        return out

    def __repr__(self) -> str:
        return f"PolicySet({self.policy_set_id}, children={len(self.children)})"


def child_identifier(child: PolicyChild) -> str:
    if isinstance(child, Policy):
        return child.policy_id
    if isinstance(child, PolicyReference):
        return child.reference_id
    return child.policy_set_id


def outcomes(
    children: Iterable[PolicyChild],
    ctx: EvaluationContext,
    obligations: list[Obligation],
) -> Iterator[combining.Outcome]:
    """The children's outcomes as a combiner wants them: one at a time,
    each child evaluated only when its outcome is pulled.  Obligations
    of the definitive children evaluated so far gather in
    ``obligations``; which of them flow upward is for the caller, once
    the combiner has decided."""
    for child in children:
        result = child.evaluate(ctx)
        if result.obligations and result.decision.is_definitive:
            obligations.extend(result.obligations)
        yield result.decision, result.status


def _matching_obligations(
    obligations: tuple[Obligation, ...], decision: Decision
) -> tuple[Obligation, ...]:
    if not obligations or decision not in (Decision.PERMIT, Decision.DENY):
        return ()
    return tuple(ob for ob in obligations if ob.fulfill_on is decision)
