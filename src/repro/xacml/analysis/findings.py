"""Finding taxonomy and the analysis report.

Findings are graded with the same :class:`~repro.xacml.validation.
Severity` scale the structural validator uses, so one report can fold
both layers together and deployment gates can block on a single
threshold.  Witness-bearing kinds (shadowing, redundancy, masking,
conflicts) are only ever emitted after the witness replayed successfully
through the real engine — suppressed candidates are counted, not
reported.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Optional

from ..context import Decision, RequestContext
from ..validation import Severity, ValidationIssue


class FindingKind(enum.Enum):
    """What the analyzer can prove about a policy tree."""

    #: Under first-applicable, an earlier rule with a different effect
    #: always fires first: the later rule's effect can never be produced.
    SHADOWED_RULE = "shadowed-rule"
    #: An earlier same-effect rule covers this rule entirely; removing it
    #: changes no decision.
    REDUNDANT_RULE = "redundant-rule"
    #: Under deny-/permit-overrides, a rule of the weaker effect can never
    #: win: whenever it applies, an overriding rule also applies.
    MASKED_EFFECT = "masked-effect"
    #: Two children of an only-one-applicable set match a common request —
    #: guaranteed Indeterminate territory.
    ONLY_ONE_APPLICABLE_OVERLAP = "only-one-applicable-overlap"
    #: Two sibling policies reach opposite definitive decisions on the
    #: same request; the combining algorithm silently arbitrates.
    CROSS_POLICY_CONFLICT = "cross-policy-conflict"
    #: A policy or policy set whose target no request can satisfy.
    DEAD_POLICY = "dead-policy"
    #: A rule whose own applicability is unsatisfiable.
    UNSATISFIABLE_TARGET = "unsatisfiable-target"


#: Kinds whose reports must carry an engine-verified witness request.
WITNESS_KINDS = frozenset(
    {
        FindingKind.SHADOWED_RULE,
        FindingKind.REDUNDANT_RULE,
        FindingKind.MASKED_EFFECT,
        FindingKind.ONLY_ONE_APPLICABLE_OVERLAP,
        FindingKind.CROSS_POLICY_CONFLICT,
    }
)


@dataclass(frozen=True)
class Finding:
    """One analyzer verdict about a specific location in the tree."""

    kind: FindingKind
    severity: Severity
    location: str
    message: str
    #: Concrete request reproducing the claimed behaviour through the
    #: real engine (required for kinds in :data:`WITNESS_KINDS`).
    witness: Optional[RequestContext] = None
    #: Decision the witness produces on the enclosing element, recorded
    #: so reports are self-describing.
    witness_decision: Optional[Decision] = None

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind.value,
            "severity": self.severity.value,
            "location": self.location,
            "message": self.message,
        }
        if self.witness is not None:
            out["witness"] = {
                "subject": self.witness.subject_id,
                "resource": self.witness.resource_id,
                "action": self.witness.action_id,
            }
        if self.witness_decision is not None:
            out["witness_decision"] = self.witness_decision.value
        return out

    def render(self) -> str:
        line = (
            f"[{self.severity.value.upper():7}] {self.kind.value:28} "
            f"{self.location}: {self.message}"
        )
        if self.witness is not None:
            line += (
                f"\n          witness: subject={self.witness.subject_id!r} "
                f"resource={self.witness.resource_id!r} "
                f"action={self.witness.action_id!r}"
            )
            if self.witness_decision is not None:
                line += f" -> {self.witness_decision.value}"
        return line


@dataclass
class AnalysisStats:
    """Work and suppression counters for one analyzer run."""

    elements_analyzed: int = 0
    rules_analyzed: int = 0
    pairs_considered: int = 0
    #: Candidate findings whose witness failed to reproduce through the
    #: engine — suppressed, never reported.
    witnesses_failed: int = 0
    #: Candidate findings for which no concrete witness request could be
    #: synthesized — suppressed, never reported.
    witnesses_unsynthesizable: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "elements_analyzed": self.elements_analyzed,
            "rules_analyzed": self.rules_analyzed,
            "pairs_considered": self.pairs_considered,
            "witnesses_failed": self.witnesses_failed,
            "witnesses_unsynthesizable": self.witnesses_unsynthesizable,
        }


@dataclass
class AnalysisReport:
    """Everything one ``analyze()`` run learned."""

    findings: list[Finding] = field(default_factory=list)
    #: Structural issues from :mod:`repro.xacml.validation`, folded in so
    #: a single report covers both layers.
    validation_issues: list[ValidationIssue] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    def blocking(self, level: Severity = Severity.ERROR) -> list[Finding]:
        """Findings at or above the given severity threshold."""
        if level is Severity.WARNING:
            return list(self.findings)
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "validation_issues": [
                {
                    "severity": issue.severity.value,
                    "location": issue.location,
                    "message": issue.message,
                }
                for issue in self.validation_issues
            ],
            "stats": self.stats.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines: list[str] = []
        if not self.findings and not self.validation_issues:
            lines.append("no findings")
        for finding in sorted(
            self.findings,
            key=lambda f: (f.severity is not Severity.ERROR, f.location),
        ):
            lines.append(finding.render())
        for issue in self.validation_issues:
            lines.append(
                f"[{issue.severity.value.upper():7}] "
                f"{'structural':28} {issue.location}: {issue.message}"
            )
        stats = self.stats
        lines.append(
            f"-- {stats.elements_analyzed} elements, "
            f"{stats.rules_analyzed} rules, "
            f"{stats.pairs_considered} pairs considered; "
            f"{len(self.findings)} findings "
            f"({stats.witnesses_failed} suppressed by witness replay, "
            f"{stats.witnesses_unsynthesizable} unsynthesizable)"
        )
        return "\n".join(lines)
