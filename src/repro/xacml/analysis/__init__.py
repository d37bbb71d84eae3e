"""Static policy-set analysis: shadowing, masking, redundancy, conflicts.

The analyzer answers the pre-deployment question the paper's
dependability argument needs answered about *policies* (not plumbing):
does this policy tree contain rules that can never fire, permits that
can never win, or sibling authorities that contradict each other?  It
never evaluates a live request — it normalizes applicability predicates
into a constraint algebra (:mod:`.predicates`), scans for structural
hazards (:mod:`.checks`), and backs every behavioural claim with a
concrete witness request replayed through the real engine
(:mod:`.witness`), so reported findings carry zero static false
positives by construction.  The paper's §3.1 modality-conflict scan
(:func:`find_modality_conflicts`, experiment E8) is a rule-pair query
on the same algebra.

Usage::

    from repro.xacml.analysis import analyze
    report = analyze(policy_or_set_or_store)
    if report.has_errors:
        ...

or from the command line::

    python -m repro.xacml.analysis policies/*.xml --format json
"""

from .checks import (
    Analyzer,
    ConflictFinding,
    ConflictingRule,
    analyze,
    find_modality_conflicts,
)
from .findings import (
    AnalysisReport,
    AnalysisStats,
    Finding,
    FindingKind,
    WITNESS_KINDS,
)
from .predicates import (
    AttributeConstraint,
    Clause,
    NormalizedTarget,
    RuleView,
    Tri,
    interpret_condition,
    normalize_target,
    rule_view,
)
from .witness import WitnessOutcome, request_from_clause

__all__ = [
    "Analyzer",
    "analyze",
    "ConflictFinding",
    "ConflictingRule",
    "find_modality_conflicts",
    "AnalysisReport",
    "AnalysisStats",
    "Finding",
    "FindingKind",
    "WITNESS_KINDS",
    "AttributeConstraint",
    "Clause",
    "NormalizedTarget",
    "RuleView",
    "Tri",
    "interpret_condition",
    "normalize_target",
    "rule_view",
    "WitnessOutcome",
    "request_from_clause",
]
