"""Static checks over policies, policy sets and whole stores.

The detection strategy is *concolic*: the constraint algebra of
:mod:`.predicates` narrows the quadratic pair space down to statically
suspicious candidates, and every candidate that claims concrete runtime
behaviour must then reproduce through the real evaluation machinery
(:mod:`.witness`) before it is reported.  Candidates whose witness fails
are suppressed and counted — the analyzer trades recall for a zero
false-positive guarantee.

:func:`find_modality_conflicts` is the paper's §3.1 pre-deployment
scan (experiment E8) asked of the same algebra: every pair of
opposite-effect rules the algebra cannot prove disjoint, with no
witness — a *potential* conflict is worth a reviewer's look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .. import combining, validation
from ..attributes import (
    ACTION_ID,
    Category,
    DataType,
    RESOURCE_ID,
    SUBJECT_ID,
)
from ..context import Decision
from ..policy import (
    Policy,
    PolicyChild,
    PolicySet,
    child_identifier,
)
from .findings import AnalysisReport, Finding, FindingKind
from .predicates import (
    ConstraintKey,
    NormalizedTarget,
    RuleView,
    Tri,
    UNCONSTRAINED,
    normalize_target,
    rule_view,
)
from .witness import (
    Resolver,
    WitnessOutcome,
    verify_cross_conflict,
    verify_only_one_overlap,
    verify_rule_masked,
    verify_rule_redundant,
    verify_rule_shadowed,
    verify_store_only_one_overlap,
)

Severity = validation.Severity

#: How many candidate clauses to try when synthesizing one witness.
MAX_WITNESS_ATTEMPTS = 4
#: How many per-effect applicability forms to keep per policy-set child.
MAX_EFFECT_FORMS = 8

_FIRST_APPLICABLE = frozenset(
    {combining.RULE_FIRST_APPLICABLE, combining.POLICY_FIRST_APPLICABLE}
)
_DENY_OVERRIDES = frozenset(
    {
        combining.RULE_DENY_OVERRIDES,
        combining.RULE_ORDERED_DENY_OVERRIDES,
        combining.POLICY_DENY_OVERRIDES,
    }
)
_PERMIT_OVERRIDES = frozenset(
    {
        combining.RULE_PERMIT_OVERRIDES,
        combining.RULE_ORDERED_PERMIT_OVERRIDES,
        combining.POLICY_PERMIT_OVERRIDES,
    }
)

#: Keys the pairwise scan may bucket children by (cheapest first).
_BUCKET_KEYS: tuple[ConstraintKey, ...] = (
    (Category.RESOURCE, RESOURCE_ID, DataType.STRING, None),
    (Category.ACTION, ACTION_ID, DataType.STRING, None),
    (Category.SUBJECT, SUBJECT_ID, DataType.STRING, None),
)


@dataclass
class _ChildProfile:
    """What the pairwise scan knows about one policy-set child."""

    child: PolicyChild
    identifier: str
    #: Normalized own target; None when the child is an unresolvable
    #: reference (excluded from pairwise reasoning).
    target_nt: Optional[NormalizedTarget]
    #: Applicability forms under which the child can permit / deny
    #: (target conjoined with leaf-rule applicability), capped.
    permit_forms: list[NormalizedTarget] = field(default_factory=list)
    deny_forms: list[NormalizedTarget] = field(default_factory=list)

    @property
    def any_forms(self) -> list[NormalizedTarget]:
        return self.permit_forms + self.deny_forms


class Analyzer:
    """One analysis run; accumulates findings into a report."""

    def __init__(self, resolver: Optional[Resolver] = None) -> None:
        self.report = AnalysisReport()
        self.resolver = resolver

    # -- bookkeeping -------------------------------------------------------

    def _emit(self, finding: Finding) -> None:
        self.report.findings.append(finding)

    def _record_outcome(self, outcome: Optional[WitnessOutcome]) -> None:
        if outcome is None:
            self.report.stats.witnesses_unsynthesizable += 1
        elif not outcome.ok:
            self.report.stats.witnesses_failed += 1

    # -- entry points ------------------------------------------------------

    def analyze_element(
        self,
        element: Union[Policy, PolicySet],
        parent_nt: NormalizedTarget = UNCONSTRAINED,
    ) -> None:
        if isinstance(element, Policy):
            self._analyze_policy(element, parent_nt)
        else:
            self._analyze_set(element, parent_nt)

    def analyze_store_elements(
        self,
        elements: Sequence[Union[Policy, PolicySet]],
        policy_combining: str,
    ) -> None:
        """Treat a store's top-level elements as siblings combined by the
        engine's policy-combining algorithm."""
        for element in elements:
            self.analyze_element(element)
        profiles = [self._profile_child(child, UNCONSTRAINED) for child in elements]
        self._pairwise_checks(
            profiles,
            ctx_nt=UNCONSTRAINED,
            algorithm=policy_combining,
            location="store",
            enclosing_set=None,
            elements=list(elements),
        )

    # -- per-policy checks -------------------------------------------------

    def _analyze_policy(
        self, policy: Policy, parent_nt: NormalizedTarget
    ) -> None:
        self.report.stats.elements_analyzed += 1
        location = f"policy[{policy.policy_id}]"
        own_nt = normalize_target(policy.target)
        if own_nt.is_unsatisfiable() is Tri.YES:
            self._emit(
                Finding(
                    kind=FindingKind.DEAD_POLICY,
                    severity=Severity.WARNING,
                    location=location,
                    message="policy target is unsatisfiable; "
                    "no request can ever reach its rules",
                )
            )
            return
        ctx_nt = parent_nt.conjoin(own_nt)
        views = [rule_view(rule) for rule in policy.rules]
        self.report.stats.rules_analyzed += len(views)
        for view in views:
            if view.applicability.is_unsatisfiable() is Tri.YES:
                self._emit(
                    Finding(
                        kind=FindingKind.UNSATISFIABLE_TARGET,
                        severity=Severity.WARNING,
                        location=f"{location}/rule[{view.rule.rule_id}]",
                        message="rule target/condition is unsatisfiable; "
                        "the rule can never apply",
                    )
                )
        algorithm = policy.rule_combining
        if algorithm in _FIRST_APPLICABLE:
            self._check_first_applicable(policy, views, ctx_nt, location)
        elif algorithm in _DENY_OVERRIDES or algorithm in _PERMIT_OVERRIDES:
            winning = (
                Decision.DENY
                if algorithm in _DENY_OVERRIDES
                else Decision.PERMIT
            )
            self._check_overrides(policy, views, ctx_nt, location, winning)

    def _check_first_applicable(
        self,
        policy: Policy,
        views: list[RuleView],
        ctx_nt: NormalizedTarget,
        location: str,
    ) -> None:
        """Under first-applicable, an earlier rule whose applicability
        covers a later rule's means the later rule never decides: a
        MATCH stops iteration, and so does an Indeterminate."""
        flagged: set[str] = set()
        for j in range(1, len(views)):
            later = views[j]
            if later.rule.rule_id in flagged:
                continue
            for i in range(j):
                earlier = views[i]
                self.report.stats.pairs_considered += 1
                if (
                    earlier.applicability.subsumes(later.applicability)
                    is not Tri.YES
                ):
                    continue
                witness_nt = ctx_nt.conjoin(later.applicability)
                rule_location = f"{location}/rule[{later.rule.rule_id}]"
                if earlier.rule.effect is not later.rule.effect:
                    outcome = self._verify(
                        witness_nt,
                        lambda clause, rule=later.rule: verify_rule_shadowed(
                            policy, rule, clause
                        ),
                    )
                    if outcome is not None and outcome.ok:
                        self._emit(
                            Finding(
                                kind=FindingKind.SHADOWED_RULE,
                                severity=Severity.ERROR,
                                location=rule_location,
                                message=(
                                    f"always shadowed by earlier rule "
                                    f"{earlier.rule.rule_id!r} under "
                                    f"first-applicable; its "
                                    f"{later.rule.effect.value} can never "
                                    f"be produced"
                                ),
                                witness=outcome.request,
                                witness_decision=outcome.decision,
                            )
                        )
                        flagged.add(later.rule.rule_id)
                        break
                    self._record_outcome(outcome)
                else:
                    outcome = self._verify(
                        witness_nt,
                        lambda clause, rule=later.rule: verify_rule_redundant(
                            policy, rule, clause
                        ),
                    )
                    if outcome is not None and outcome.ok:
                        self._emit(
                            Finding(
                                kind=FindingKind.REDUNDANT_RULE,
                                severity=Severity.WARNING,
                                location=rule_location,
                                message=(
                                    f"never reached: earlier same-effect "
                                    f"rule {earlier.rule.rule_id!r} covers "
                                    f"it under first-applicable"
                                ),
                                witness=outcome.request,
                                witness_decision=outcome.decision,
                            )
                        )
                        flagged.add(later.rule.rule_id)
                        break
                    self._record_outcome(outcome)

    def _check_overrides(
        self,
        policy: Policy,
        views: list[RuleView],
        ctx_nt: NormalizedTarget,
        location: str,
        winning: Decision,
    ) -> None:
        masked_flagged: set[str] = set()
        redundant_flagged: set[str] = set()
        for j, view in enumerate(views):
            rule_location = f"{location}/rule[{view.rule.rule_id}]"
            for i, other in enumerate(views):
                if i == j:
                    continue
                # Masking: an overriding-effect rule covers this rule's
                # whole applicability, so its weaker effect never wins.
                # The masker may be error-prone — an Indeterminate still
                # beats the weaker effect under the overrides bias.
                if (
                    view.rule.effect is not winning
                    and other.rule.effect is winning
                    and view.rule.rule_id not in masked_flagged
                ):
                    self.report.stats.pairs_considered += 1
                    if (
                        other.applicability.subsumes(view.applicability)
                        is Tri.YES
                    ):
                        outcome = self._verify(
                            ctx_nt.conjoin(view.applicability),
                            lambda clause, rule=view.rule: verify_rule_masked(
                                policy, rule, clause
                            ),
                        )
                        if outcome is not None and outcome.ok:
                            self._emit(
                                Finding(
                                    kind=FindingKind.MASKED_EFFECT,
                                    severity=Severity.ERROR,
                                    location=rule_location,
                                    message=(
                                        f"{view.rule.effect.value} can never "
                                        f"win: rule {other.rule.rule_id!r} "
                                        f"({winning.value}) covers its whole "
                                        f"applicability under "
                                        f"{_algorithm_name(policy.rule_combining)}"
                                    ),
                                    witness=outcome.request,
                                    witness_decision=outcome.decision,
                                )
                            )
                            masked_flagged.add(view.rule.rule_id)
                        else:
                            self._record_outcome(outcome)
                # Redundancy: a same-effect rule covers this one and
                # neither can evaluate Indeterminate, so removal changes
                # no decision.  (An error-capable rule's Indeterminate
                # can flip the combined outcome, hence both guards.)
                if (
                    view.rule.effect is other.rule.effect
                    and view.rule.rule_id not in redundant_flagged
                    and view.cannot_error
                    and other.cannot_error
                ):
                    self.report.stats.pairs_considered += 1
                    if (
                        other.applicability.subsumes(view.applicability)
                        is Tri.YES
                    ):
                        outcome = self._verify(
                            ctx_nt.conjoin(view.applicability),
                            lambda clause, rule=view.rule: verify_rule_redundant(
                                policy, rule, clause
                            ),
                        )
                        if outcome is not None and outcome.ok:
                            self._emit(
                                Finding(
                                    kind=FindingKind.REDUNDANT_RULE,
                                    severity=Severity.WARNING,
                                    location=rule_location,
                                    message=(
                                        f"subsumed by same-effect rule "
                                        f"{other.rule.rule_id!r}; removing it "
                                        f"changes no decision"
                                    ),
                                    witness=outcome.request,
                                    witness_decision=outcome.decision,
                                )
                            )
                            redundant_flagged.add(view.rule.rule_id)
                        else:
                            self._record_outcome(outcome)

    # -- per-set checks ----------------------------------------------------

    def _analyze_set(
        self, policy_set: PolicySet, parent_nt: NormalizedTarget
    ) -> None:
        self.report.stats.elements_analyzed += 1
        location = f"policySet[{policy_set.policy_set_id}]"
        own_nt = normalize_target(policy_set.target)
        if own_nt.is_unsatisfiable() is Tri.YES:
            self._emit(
                Finding(
                    kind=FindingKind.DEAD_POLICY,
                    severity=Severity.WARNING,
                    location=location,
                    message="policy set target is unsatisfiable; "
                    "no request can ever reach its children",
                )
            )
            return
        ctx_nt = parent_nt.conjoin(own_nt)
        profiles: list[_ChildProfile] = []
        for child in policy_set.children:
            resolved = self._resolve_child(child)
            if resolved is not None:
                self.analyze_element(resolved, ctx_nt)
            profiles.append(self._profile_child(child, ctx_nt))
        self._pairwise_checks(
            profiles,
            ctx_nt=ctx_nt,
            algorithm=policy_set.policy_combining,
            location=location,
            enclosing_set=policy_set,
            elements=None,
        )

    def _resolve_child(
        self, child: PolicyChild
    ) -> Optional[Union[Policy, PolicySet]]:
        if isinstance(child, (Policy, PolicySet)):
            return child
        if self.resolver is None:
            return None
        resolved = self.resolver(child.reference_id)
        if isinstance(resolved, (Policy, PolicySet)):
            return resolved
        return None

    def _profile_child(
        self, child: PolicyChild, ctx_nt: NormalizedTarget
    ) -> _ChildProfile:
        identifier = child_identifier(child)
        resolved = self._resolve_child(child)
        if resolved is None:
            return _ChildProfile(
                child=child, identifier=identifier, target_nt=None
            )
        target_nt = normalize_target(resolved.target)
        profile = _ChildProfile(
            child=child, identifier=identifier, target_nt=target_nt
        )
        leaf_policies = (
            [resolved] if isinstance(resolved, Policy) else resolved.flatten()
        )
        for leaf in leaf_policies:
            leaf_nt = (
                target_nt
                if leaf is resolved
                else target_nt.conjoin(normalize_target(leaf.target))
            )
            for rule in leaf.rules:
                forms = (
                    profile.permit_forms
                    if rule.effect is Decision.PERMIT
                    else profile.deny_forms
                )
                if len(forms) >= MAX_EFFECT_FORMS:
                    continue
                forms.append(leaf_nt.conjoin(rule_view(rule).applicability))
        return profile

    def _pairwise_checks(
        self,
        profiles: list[_ChildProfile],
        ctx_nt: NormalizedTarget,
        algorithm: str,
        location: str,
        enclosing_set: Optional[PolicySet],
        elements: Optional[list],
    ) -> None:
        only_one = algorithm == combining.POLICY_ONLY_ONE_APPLICABLE
        for i, j in _candidate_pairs([profile.target_nt for profile in profiles]):
            first, second = profiles[i], profiles[j]
            self.report.stats.pairs_considered += 1
            if only_one:
                self._check_only_one_pair(
                    first, second, ctx_nt, location, enclosing_set, elements
                )
            else:
                self._check_conflict_pair(first, second, ctx_nt, location)

    def _check_only_one_pair(
        self,
        first: _ChildProfile,
        second: _ChildProfile,
        ctx_nt: NormalizedTarget,
        location: str,
        enclosing_set: Optional[PolicySet],
        elements: Optional[list],
    ) -> None:
        attempted = False
        for first_form in first.any_forms[:MAX_WITNESS_ATTEMPTS]:
            for second_form in second.any_forms[:MAX_WITNESS_ATTEMPTS]:
                verdict, clause = ctx_nt.conjoin(first_form).overlap_clause(
                    second_form
                )
                if verdict is not Tri.YES or clause is None:
                    continue
                attempted = True
                outcome = (
                    verify_only_one_overlap(enclosing_set, clause, self.resolver)
                    if enclosing_set is not None
                    else verify_store_only_one_overlap(
                        elements or [], clause, self.resolver
                    )
                )
                if outcome.ok:
                    self._emit(
                        Finding(
                            kind=FindingKind.ONLY_ONE_APPLICABLE_OVERLAP,
                            severity=Severity.ERROR,
                            location=location,
                            message=(
                                f"children {first.identifier!r} and "
                                f"{second.identifier!r} are both applicable "
                                f"to a common request; only-one-applicable "
                                f"yields Indeterminate there"
                            ),
                            witness=outcome.request,
                            witness_decision=outcome.decision,
                        )
                    )
                    return
        if attempted:
            self.report.stats.witnesses_failed += 1

    def _check_conflict_pair(
        self,
        first: _ChildProfile,
        second: _ChildProfile,
        ctx_nt: NormalizedTarget,
        location: str,
    ) -> None:
        """Opposite definitive outcomes on one request: the combining
        algorithm silently arbitrates between sibling authorities."""
        combos = [
            (first.permit_forms, second.deny_forms),
            (first.deny_forms, second.permit_forms),
        ]
        attempted = False
        for first_pool, second_pool in combos:
            for first_form in first_pool[:MAX_WITNESS_ATTEMPTS]:
                for second_form in second_pool[:MAX_WITNESS_ATTEMPTS]:
                    verdict, clause = ctx_nt.conjoin(
                        first_form
                    ).overlap_clause(second_form)
                    if verdict is not Tri.YES or clause is None:
                        continue
                    attempted = True
                    outcome, first_decision, second_decision = (
                        verify_cross_conflict(
                            first.child, second.child, clause, self.resolver
                        )
                    )
                    if outcome.ok:
                        self._emit(
                            Finding(
                                kind=FindingKind.CROSS_POLICY_CONFLICT,
                                severity=Severity.WARNING,
                                location=location,
                                message=(
                                    f"{first.identifier!r} decides "
                                    f"{first_decision.value} while "
                                    f"{second.identifier!r} decides "
                                    f"{second_decision.value} on the same "
                                    f"request; the combining algorithm "
                                    f"arbitrates"
                                ),
                                witness=outcome.request,
                                witness_decision=outcome.decision,
                            )
                        )
                        return
        if attempted:
            self.report.stats.witnesses_failed += 1

    # -- witness plumbing --------------------------------------------------

    def _verify(self, witness_nt: NormalizedTarget, verify) -> (
        Optional[WitnessOutcome]
    ):
        """Try up to MAX_WITNESS_ATTEMPTS clauses; first success wins.

        Returns the successful outcome, the last failing outcome, or None
        when no clause produced a concrete request at all.
        """
        last: Optional[WitnessOutcome] = None
        attempts = 0
        for clause in witness_nt.clauses:
            if attempts >= MAX_WITNESS_ATTEMPTS:
                break
            if clause.is_empty() is Tri.YES:
                continue
            attempts += 1
            outcome = verify(clause)
            if outcome.ok:
                return outcome
            if outcome.reason == "replay-mismatch":
                last = outcome
        return last


def _finite_values(
    nt: NormalizedTarget, key: ConstraintKey
) -> Optional[frozenset]:
    """The finite set of values ``key`` may take under ``nt``, or None
    when some clause leaves it unconstrained (wildcard)."""
    values: set = set()
    for clause in nt.clauses:
        constraint = clause.constraint(key)
        if constraint is None or constraint.allowed is None:
            return None
        values |= constraint.allowed
    return frozenset(values)


def _candidate_pairs(
    forms: Sequence[Optional[NormalizedTarget]],
) -> list[tuple[int, int]]:
    """Cheap pair enumeration over normal forms (None: unknown, pairs
    with everyone): bucket them by the finite equality values of the
    most selective of the three canonical identifiers, pairing wildcard
    forms with everyone.  Falls back to all pairs when nothing buckets
    well."""
    if len(forms) < 2:
        return []
    best_key: Optional[ConstraintKey] = None
    best_wildcards = len(forms) + 1
    value_maps: dict[ConstraintKey, list[Optional[frozenset]]] = {}
    for key in _BUCKET_KEYS:
        per_child = [
            None if form is None else _finite_values(form, key) for form in forms
        ]
        value_maps[key] = per_child
        wildcards = sum(1 for v in per_child if v is None)
        if wildcards < best_wildcards:
            best_wildcards = wildcards
            best_key = key
    assert best_key is not None
    per_child = value_maps[best_key]
    if best_wildcards == len(forms):
        return [(i, j) for i in range(len(forms)) for j in range(i + 1, len(forms))]
    buckets: dict = {}
    wildcards: list[int] = []
    for index, values in enumerate(per_child):
        if values is None:
            wildcards.append(index)
            continue
        for value in values:
            buckets.setdefault(value, []).append(index)
    pairs: set[tuple[int, int]] = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                pairs.add((min(i, j), max(i, j)))
    for w in wildcards:
        for other in range(len(forms)):
            if other != w:
                pairs.add((min(w, other), max(w, other)))
    return sorted(pairs)


def _algorithm_name(identifier: str) -> str:
    return identifier.rsplit(":", 1)[-1]


def analyze(
    subject,
    *,
    policy_combining: str = combining.POLICY_DENY_OVERRIDES,
    include_validation: bool = True,
) -> AnalysisReport:
    """Statically analyze a Policy, PolicySet or PolicyStore.

    Args:
        subject: the element or store to analyze.
        policy_combining: for a store, the engine-level combining
            algorithm its elements meet under.
        include_validation: fold structural :mod:`..validation` issues
            into the report.

    A store's ``PolicyReference`` children resolve through the store; a
    lone element's do not resolve.
    """
    from ..engine import PolicyStore  # local import to avoid a cycle

    if isinstance(subject, PolicyStore):
        elements = subject.elements()
        analyzer = Analyzer(resolver=subject.get)
        analyzer.analyze_store_elements(elements, policy_combining)
        if include_validation:
            for element in elements:
                analyzer.report.validation_issues.extend(
                    validation.validate(element, resolver=analyzer.resolver)
                )
        return analyzer.report
    analyzer = Analyzer()
    analyzer.analyze_element(subject)
    if include_validation:
        analyzer.report.validation_issues.extend(validation.validate(subject))
    return analyzer.report


# -- modality conflicts (paper §3.1, experiment E8) ------------------------


class ConflictingRule(NamedTuple):
    """One side of a modality conflict."""

    policy_id: str
    rule_id: str
    effect: Decision


@dataclass(frozen=True)
class ConflictFinding:
    """A potential or actual modality conflict between two rules."""

    a: ConflictingRule
    b: ConflictingRule
    #: 'actual' when neither rule has a condition (the contradiction is
    #: unconditional); 'potential' when a condition might separate them.
    kind: str

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.a.policy_id}/{self.a.rule_id} "
            f"({self.a.effect.value}) vs {self.b.policy_id}/{self.b.rule_id} "
            f"({self.b.effect.value})"
        )


def find_modality_conflicts(
    elements: Iterable[Union[Policy, PolicySet]],
) -> list[ConflictFinding]:
    """All pairs of opposite-effect rules that may apply to one request.

    The paper's procedure — flag a Permit and a Deny that share at
    least one {subject, action, target} tuple — over the constraint
    algebra: a rule's form is its policy's target conjoined with its own
    applicability (policy sets are flattened), candidate pairs come from
    the sibling scan's bucketing, and a pair is reported unless the two
    forms are provably disjoint.  Unconditional pairs are *actual*
    conflicts; conditioned pairs are *potential* (the runtime condition
    may disambiguate).
    """
    rules: list[tuple[ConflictingRule, bool]] = []
    forms: list[NormalizedTarget] = []
    for element in elements:
        for policy in [element] if isinstance(element, Policy) else element.flatten():
            policy_nt = normalize_target(policy.target)
            for rule in policy.rules:
                side = ConflictingRule(policy.policy_id, rule.rule_id, rule.effect)
                rules.append((side, rule.condition is not None))
                forms.append(policy_nt.conjoin(rule_view(rule).applicability))
    findings: list[ConflictFinding] = []
    for i, j in _candidate_pairs(forms):
        (a, a_conditioned), (b, b_conditioned) = rules[i], rules[j]
        if a.effect is b.effect or forms[i].overlap_clause(forms[j])[0] is Tri.NO:
            continue
        kind = "potential" if a_conditioned or b_conditioned else "actual"
        findings.append(ConflictFinding(a=a, b=b, kind=kind))
    return findings
