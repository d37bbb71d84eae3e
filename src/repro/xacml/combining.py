"""Rule- and policy-combining algorithms.

The paper (Sections 2.3 and 3.1) leans on combining algorithms as XACML's
answer to policy conflict: "When an XACML-compliant decision point finds
two or more policies ... with contradicting semantics then it uses one of
the mentioned algorithms to make its access control decision."  We
implement the four the paper names — deny-overrides, permit-overrides,
first-applicable, only-one-applicable — plus their ordered variants,
behind a registry so profiles can add more.

A combiner is a fold over a *lazy* iterable of child outcomes,
``(Decision, Status | None)`` pairs in document order: it pulls one
outcome at a time with a plain ``for`` and returns as soon as the
algorithm is decided.  The callers (:class:`~repro.xacml.policy.Policy`,
:class:`~repro.xacml.policy.PolicySet`, the engine, the analyzer's
witness replay) hand it a generator that evaluates a child only when
its outcome is pulled, so the short circuit of the standard is real:
children after the deciding one are never evaluated, their targets and
conditions never touch the request, and their attribute finder is never
asked.  A combiner must therefore not drain its argument (no
``list(children)``) — the short-circuit and ``finder_calls`` tests hold
it to that.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .context import Decision, Status, StatusCode

RULE_DENY_OVERRIDES = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:deny-overrides"
RULE_PERMIT_OVERRIDES = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:permit-overrides"
RULE_FIRST_APPLICABLE = "urn:oasis:names:tc:xacml:1.0:rule-combining-algorithm:first-applicable"
RULE_ORDERED_DENY_OVERRIDES = (
    "urn:oasis:names:tc:xacml:1.1:rule-combining-algorithm:ordered-deny-overrides"
)
RULE_ORDERED_PERMIT_OVERRIDES = (
    "urn:oasis:names:tc:xacml:1.1:rule-combining-algorithm:ordered-permit-overrides"
)

POLICY_DENY_OVERRIDES = (
    "urn:oasis:names:tc:xacml:1.0:policy-combining-algorithm:deny-overrides"
)
POLICY_PERMIT_OVERRIDES = (
    "urn:oasis:names:tc:xacml:1.0:policy-combining-algorithm:permit-overrides"
)
POLICY_FIRST_APPLICABLE = (
    "urn:oasis:names:tc:xacml:1.0:policy-combining-algorithm:first-applicable"
)
POLICY_ONLY_ONE_APPLICABLE = (
    "urn:oasis:names:tc:xacml:1.0:policy-combining-algorithm:only-one-applicable"
)

#: What one child decided: (decision, status-or-None).
Outcome = tuple[Decision, Optional[Status]]
Combiner = Callable[[Iterable[Outcome]], Outcome]

#: The bare outcomes — nothing to say beyond the decision — shared by
#: every rule, policy and combiner that reports one.
NOT_APPLICABLE_OUTCOME: Outcome = (Decision.NOT_APPLICABLE, None)
PERMIT_OUTCOME: Outcome = (Decision.PERMIT, None)
DENY_OUTCOME: Outcome = (Decision.DENY, None)

_COMBINERS: dict[str, Combiner] = {}


class CombiningError(Exception):
    """Raised for unknown combining algorithm identifiers."""


def register(identifier: str, combiner: Combiner) -> None:
    if identifier in _COMBINERS:
        raise ValueError(f"duplicate combining algorithm {identifier}")
    _COMBINERS[identifier] = combiner


def lookup(identifier: str) -> Combiner:
    try:
        return _COMBINERS[identifier]
    except KeyError:
        raise CombiningError(f"unknown combining algorithm {identifier!r}") from None


def known_algorithms() -> frozenset[str]:
    return frozenset(_COMBINERS)


def deny_overrides(children: Iterable[Outcome]) -> Outcome:
    """Deny wins over everything; Indeterminate is deny-biased.

    Follows XACML 2.0 Appendix C.1: any Deny returns Deny immediately; an
    Indeterminate is remembered and, per the deny-biased reading, reported
    as Deny-leaning Indeterminate only if no Permit occurs — a potential
    deny must not be masked by a later Permit, so Indeterminate wins over
    Permit here.
    """
    saw_permit = False
    saw_indeterminate: Optional[Status] = None
    for decision, status in children:
        if decision is Decision.DENY:
            return Decision.DENY, status
        if decision is Decision.INDETERMINATE:
            saw_indeterminate = status or Status(
                code=StatusCode.PROCESSING_ERROR, message="child indeterminate"
            )
        elif decision is Decision.PERMIT:
            saw_permit = True
    if saw_indeterminate is not None:
        # A child that errored *might* have denied: stay on the safe side.
        return Decision.INDETERMINATE, saw_indeterminate
    if saw_permit:
        return PERMIT_OUTCOME
    return NOT_APPLICABLE_OUTCOME


def permit_overrides(children: Iterable[Outcome]) -> Outcome:
    """Permit wins over everything; mirrors :func:`deny_overrides`."""
    saw_deny = False
    deny_status: Optional[Status] = None
    saw_indeterminate: Optional[Status] = None
    for decision, status in children:
        if decision is Decision.PERMIT:
            return Decision.PERMIT, status
        if decision is Decision.INDETERMINATE:
            saw_indeterminate = status or Status(
                code=StatusCode.PROCESSING_ERROR, message="child indeterminate"
            )
        elif decision is Decision.DENY:
            saw_deny = True
            deny_status = status
    if saw_indeterminate is not None:
        return Decision.INDETERMINATE, saw_indeterminate
    if saw_deny:
        return Decision.DENY, deny_status
    return NOT_APPLICABLE_OUTCOME


def first_applicable(children: Iterable[Outcome]) -> Outcome:
    """The first definitive or indeterminate child decides."""
    for decision, status in children:
        if decision is Decision.NOT_APPLICABLE:
            continue
        return decision, status
    return NOT_APPLICABLE_OUTCOME


def only_one_applicable(children: Iterable[Outcome]) -> Outcome:
    """Exactly one child may apply; more than one is an error.

    The paper cites this algorithm for environments where overlapping
    authority would itself signal a configuration fault between domains.
    """
    applicable: Optional[Outcome] = None
    for decision, status in children:
        if decision is Decision.NOT_APPLICABLE:
            continue
        if decision is Decision.INDETERMINATE:
            return Decision.INDETERMINATE, status
        if applicable is not None:
            return (
                Decision.INDETERMINATE,
                Status(
                    code=StatusCode.PROCESSING_ERROR,
                    message="more than one policy applicable "
                    "under only-one-applicable",
                ),
            )
        applicable = (decision, status)
    return applicable or NOT_APPLICABLE_OUTCOME


register(RULE_DENY_OVERRIDES, deny_overrides)
register(RULE_PERMIT_OVERRIDES, permit_overrides)
register(RULE_FIRST_APPLICABLE, first_applicable)
# Ordered variants differ from the base ones only in mandating document
# order, which our sequential implementation already guarantees.
register(RULE_ORDERED_DENY_OVERRIDES, deny_overrides)
register(RULE_ORDERED_PERMIT_OVERRIDES, permit_overrides)

register(POLICY_DENY_OVERRIDES, deny_overrides)
register(POLICY_PERMIT_OVERRIDES, permit_overrides)
register(POLICY_FIRST_APPLICABLE, first_applicable)
register(POLICY_ONLY_ONE_APPLICABLE, only_one_applicable)
