"""The XACML evaluation engine: what beats inside every PDP.

The engine evaluates a request context against a policy store and returns
a response context.  Two store strategies are provided:

* :class:`PolicyStore` — the straightforward "evaluate the root element"
  model of the standard;
* target indexing — an optimisation that buckets policies by the literal
  subject/resource/action equality constraints in their targets, so that
  requests only evaluate plausibly-applicable policies.  This is the
  mechanism behind the scalability shape of experiment E14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from . import combining
from .attributes import ACTION_ID, Category, RESOURCE_ID, SUBJECT_ID
from .context import Decision, RequestContext, ResponseContext, Status
from .expressions import AttributeFinder, EvaluationContext
from .policy import Policy, PolicyResult, PolicySet, child_identifier

PolicyElement = Union[Policy, PolicySet]

#: The store indexes on the three canonical identifiers only; anything
#: else is resolvable via PIP and cannot be judged from the raw request.
_INDEXED_IDS = (
    (Category.SUBJECT, SUBJECT_ID),
    (Category.RESOURCE, RESOURCE_ID),
    (Category.ACTION, ACTION_ID),
)


def _index_keys(request: RequestContext) -> tuple:
    """Every index bucket a request can hit: one per value of each
    canonical identifier's bag (a multi-valued id hits several)."""
    return tuple(
        (category, attribute_id, value.lexical())
        for category, attribute_id in _INDEXED_IDS
        for value in request.values(category, attribute_id)
    )


@dataclass
class EvaluationStats:
    """Per-request work counters, surfaced to benchmarks."""

    policies_considered: int = 0
    policies_skipped_by_index: int = 0
    finder_calls: int = 0
    #: Size of the candidate set the store produced for this request —
    #: the index-selectivity figure E19 reports per shard.
    candidate_set_size: int = 0


class AnalysisGateError(ValueError):
    """An element was refused deployment by the store's analysis gate.

    Carries the blocking findings so callers (PAPs, tests, operators) can
    show *why* — every one of them is backed by an engine-verified
    witness request.
    """

    def __init__(self, identifier: str, findings: list) -> None:
        summary = "; ".join(
            f"{f.kind.value}@{f.location}" for f in findings[:3]
        )
        more = f" (+{len(findings) - 3} more)" if len(findings) > 3 else ""
        super().__init__(
            f"analysis gate refused {identifier!r}: {summary}{more}"
        )
        self.identifier = identifier
        self.findings = findings


class PolicyStore:
    """Holds top-level policy elements and finds the applicable ones.

    With ``indexed=True`` the store maintains an inverted index over the
    values a canonical identifier *must* take for each element's target
    to match (:meth:`~repro.xacml.targets.AnyOf.constraining_values`).
    A request then only evaluates elements whose indexed constraint is
    satisfiable, plus all unindexable elements.  Indexing never changes
    decisions — only which elements get *checked* — and a property test
    asserts exactly that against the ``indexed=False`` oracle.

    ``analysis_gate`` opts into pre-deployment static analysis on every
    :meth:`add`: ``"error"`` refuses elements with ERROR-severity
    findings (shadowed rules, masked effects, only-one-applicable
    overlaps), ``"warning"`` refuses on any finding at all.  Refusals
    raise :class:`AnalysisGateError` and leave the store unchanged.
    """

    def __init__(
        self,
        indexed: bool = True,
        analysis_gate: Optional[str] = None,
        metrics: Optional[object] = None,
    ) -> None:
        if analysis_gate not in (None, "error", "warning"):
            raise ValueError(
                f"analysis_gate must be 'error', 'warning' or None, "
                f"got {analysis_gate!r}"
            )
        self.indexed = indexed
        self.analysis_gate = analysis_gate
        self.metrics = metrics
        self._elements: dict[str, PolicyElement] = {}
        self._index: dict[tuple[Category, str, str], set[str]] = {}
        self._unindexable: set[str] = set()

    def __len__(self) -> int:
        return len(self._elements)

    def add(self, element: PolicyElement) -> None:
        identifier = child_identifier(element)
        if identifier in self._elements:
            raise ValueError(f"duplicate policy element id {identifier!r}")
        if self.analysis_gate is not None:
            self._gate_check(identifier, element)
        self._elements[identifier] = element
        self._index_element(identifier, element)

    def _gate_check(self, identifier: str, element: PolicyElement) -> None:
        from .analysis import analyze  # deferred: analysis imports this module
        from .validation import Severity

        level = (
            Severity.WARNING
            if self.analysis_gate == "warning"
            else Severity.ERROR
        )
        report = analyze(
            element,
            resolver=self.get,
            include_validation=False,
            metrics=self.metrics,
        )
        blocking = report.blocking(level)
        if blocking:
            if self.metrics is not None:
                self.metrics.bump("analysis.gate_rejections")
            raise AnalysisGateError(identifier, blocking)

    def remove(self, identifier: str) -> None:
        self._elements.pop(identifier, None)
        self._unindexable.discard(identifier)
        for bucket in self._index.values():
            bucket.discard(identifier)

    def replace(self, element: PolicyElement) -> None:
        self.remove(child_identifier(element))
        self.add(element)

    def get(self, identifier: str) -> Optional[PolicyElement]:
        return self._elements.get(identifier)

    def elements(self) -> list[PolicyElement]:
        return list(self._elements.values())

    def _index_element(self, identifier: str, element: PolicyElement) -> None:
        if self.indexed:
            # The first AnyOf group, in target order, that soundly
            # constrains a canonical identifier is the index key; a
            # group with an unconstrained alternative is skipped.
            for any_of in element.target.any_ofs:
                for category, attribute_id in _INDEXED_IDS:
                    values = any_of.constraining_values(category, attribute_id)
                    if values is None:
                        continue
                    for value in values:
                        self._index.setdefault(
                            (category, attribute_id, value), set()
                        ).add(identifier)
                    return
        self._unindexable.add(identifier)

    @property
    def element_count(self) -> int:
        """Top-level elements held — the per-shard state figure of E19."""
        return len(self._elements)

    def candidates(
        self,
        request: RequestContext,
        stats: Optional[EvaluationStats] = None,
        keys: Optional[tuple] = None,
    ) -> list[PolicyElement]:
        """Elements worth evaluating for this request, in insertion order.

        ``keys`` lets a caller that already derived the request's
        :func:`_index_keys` (the batch memo) pass them in.
        """
        if not self.indexed:
            if stats is not None:
                stats.candidate_set_size = len(self._elements)
            return self.elements()
        wanted: set[str] = set(self._unindexable)
        for key in keys if keys is not None else _index_keys(request):
            wanted.update(self._index.get(key, ()))
        if stats is not None:
            stats.policies_skipped_by_index += len(self._elements) - len(wanted)
            stats.candidate_set_size = len(wanted)
        return [
            element
            for identifier, element in self._elements.items()
            if identifier in wanted
        ]

    def partition_for(self, owns: Callable[[str], bool]) -> "PolicyStore":
        """Derive one shard's store under a resource placement.

        The shard keeps every element whose target provably applies only
        to resources (:meth:`~repro.xacml.targets.Target.
        constraining_values` on ``resource-id``) at least one of which
        ``owns`` — plus every element with *no* sound resource
        constraint, which must replicate to all shards because dropping
        it anywhere could change decisions.  The union of all shards'
        decisions therefore equals the unsharded store's on any request
        routed by resource key.
        """
        shard = PolicyStore(indexed=self.indexed)
        for element in self._elements.values():
            values = element.target.constraining_values(
                Category.RESOURCE, RESOURCE_ID
            )
            if values is None or any(owns(value) for value in values):
                shard.add(element)
        return shard

    def shard_stats(self) -> dict[str, int]:
        """Element-count breakdown for per-shard state-skew reporting."""
        return {
            "elements": len(self._elements),
            "unindexable": len(self._unindexable),
            "index_keys": len(self._index),
        }


@dataclass
class EngineResponse:
    """Response context plus evaluation statistics."""

    response: ResponseContext
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    @property
    def decision(self) -> Decision:
        return self.response.decision


class PdpEngine:
    """Evaluates requests against a policy store.

    Args:
        store: the policy store to evaluate against.
        policy_combining: algorithm merging the decisions of multiple
            applicable top-level elements.
        attribute_finder: PIP hook for attributes absent from requests.
    """

    def __init__(
        self,
        store: Optional[PolicyStore] = None,
        policy_combining: str = combining.POLICY_DENY_OVERRIDES,
        attribute_finder: Optional[AttributeFinder] = None,
    ) -> None:
        self.store = store if store is not None else PolicyStore()
        self.policy_combining = policy_combining
        combining.lookup(policy_combining)
        self.attribute_finder = attribute_finder
        self.evaluations = 0
        self.batches_evaluated = 0
        #: Candidate lookups answered from the batch memo instead of the
        #: target index — the engine-level work batching amortises.
        self.candidate_lookups_shared = 0

    def add_policy(self, element: PolicyElement) -> None:
        self.store.add(element)

    def add_policies(self, elements: Iterable[PolicyElement]) -> None:
        for element in elements:
            self.store.add(element)

    def evaluate(
        self, request: RequestContext, current_time: float = 0.0
    ) -> EngineResponse:
        """Evaluate a request and produce a single-result response."""
        self.evaluations += 1
        stats = EvaluationStats()
        candidates = self.store.candidates(request, stats)
        return self._evaluate_candidates(
            request, candidates, stats, current_time, self.attribute_finder
        )

    def evaluate_batch(
        self,
        requests: Sequence[RequestContext],
        current_time: float = 0.0,
        finder_for: Optional[
            Callable[[RequestContext], Optional[AttributeFinder]]
        ] = None,
    ) -> list[EngineResponse]:
        """Evaluate N requests against one snapshot of the policy store.

        Element-wise equivalent to calling :meth:`evaluate` on each
        request in order (a property test asserts exactly that), but the
        batch shares target-index lookups: requests carrying the same
        subject/resource/action identifier bags resolve their candidate
        list once.  The store is not refreshed or mutated between elements —
        the "one policy snapshot" guarantee a batched decision query
        carries.

        Args:
            requests: request contexts, evaluated in order.
            current_time: evaluation time shared by the whole batch.
            finder_for: optional per-request attribute-finder factory
                (the PDP binds its PIP resolver to each request); when
                omitted every element uses ``self.attribute_finder``.
        """
        self.batches_evaluated += 1
        memo: dict[tuple, list[PolicyElement]] = {}
        responses: list[EngineResponse] = []
        for request in requests:
            self.evaluations += 1
            stats = EvaluationStats()
            key = _index_keys(request)
            candidates = memo.get(key)
            if candidates is None:
                candidates = self.store.candidates(request, stats, keys=key)
                memo[key] = candidates
            else:
                self.candidate_lookups_shared += 1
                if self.store.indexed:
                    stats.policies_skipped_by_index = len(self.store) - len(
                        candidates
                    )
                stats.candidate_set_size = len(candidates)
            finder = (
                finder_for(request)
                if finder_for is not None
                else self.attribute_finder
            )
            responses.append(
                self._evaluate_candidates(
                    request, candidates, stats, current_time, finder
                )
            )
        return responses

    def _evaluate_candidates(
        self,
        request: RequestContext,
        candidates: list[PolicyElement],
        stats: EvaluationStats,
        current_time: float,
        attribute_finder: Optional[AttributeFinder],
    ) -> EngineResponse:
        """Combine the candidate elements' results into one response."""
        ctx = EvaluationContext(
            request=request,
            current_time=current_time,
            attribute_finder=attribute_finder,
            reference_resolver=self.store.get,
        )
        stats.policies_considered = len(candidates)
        results: list[PolicyResult] = []

        def make_evaluable(element: PolicyElement):
            def run():
                result = element.evaluate(ctx)
                results.append(result)
                return result.decision, result.status

            return run

        combiner = combining.lookup(self.policy_combining)
        decision, status = combiner([make_evaluable(c) for c in candidates])
        obligations = tuple(
            ob
            for result in results
            if result.decision is decision
            for ob in result.obligations
            if ob.fulfill_on is decision
        )
        stats.finder_calls = ctx.finder_calls
        response = ResponseContext.single(
            decision=decision,
            status=status or Status(),
            obligations=obligations,
            resource_id=request.resource_id,
        )
        return EngineResponse(response=response, stats=stats)

    def decide(
        self, request: RequestContext, current_time: float = 0.0
    ) -> Decision:
        """Shorthand when only the decision matters."""
        return self.evaluate(request, current_time).decision

    def analyze(self):
        """Statically analyze the whole store under this engine's
        policy-combining algorithm (see :mod:`repro.xacml.analysis`)."""
        from .analysis import analyze

        return analyze(
            self.store,
            policy_combining=self.policy_combining,
            metrics=self.store.metrics,
        )


def evaluate_element(
    element: PolicyElement,
    request: RequestContext,
    current_time: float = 0.0,
    attribute_finder: Optional[AttributeFinder] = None,
    reference_resolver=None,
) -> PolicyResult:
    """Evaluate a single policy element outside any engine (test helper)."""
    ctx = EvaluationContext(
        request=request,
        current_time=current_time,
        attribute_finder=attribute_finder,
        reference_resolver=reference_resolver,
    )
    return element.evaluate(ctx)
