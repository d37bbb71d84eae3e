"""The XACML evaluation engine: what beats inside every PDP.

The engine evaluates a request context against a policy store and returns
a response context.  :class:`PolicyStore` holds the top-level elements
and picks the ones worth evaluating:

* ``indexed=False`` — the straightforward "evaluate every element" model
  of the standard, kept as the oracle the property tests compare with;
* ``indexed=True`` (the default) — target indexing: elements are posted
  under the literal subject/resource/action values their targets
  require, so a request only evaluates plausibly-applicable elements.
  This is the mechanism behind the scalability shape of experiment E14.

Cost model of the indexed store (``K`` = index keys of one element,
``M`` = elements posted under the request's keys plus the unindexable
ones): ``candidates()`` is O(M log M) and never looks at the rest of
the store; ``add()``, ``remove()`` and ``replace()`` are O(K).  The one
exception is a request that *omits* a canonical identifier: it walks
every index key of that identifier (see :func:`_index_keys`).

Cost model of evaluation, the other half of a decision.  Per candidate:
its target is one flat conjunction of matches (what
:func:`~repro.xacml.targets.target_of` builds), each a probe of the
decision's bag table and a value compare, stopping at the first
NO_MATCH; only candidates whose target matches go on to run their
rules' conditions, with functions and combining algorithms bound when
the policy was built.  Per decision: each distinct designator is
fetched once — one scan of the request's category and, if that finds
nothing, one call to the attribute finder — however many candidates,
rules and matches read it (:meth:`~repro.xacml.expressions.
EvaluationContext.resolve`; XACML's "populated before it is first
tested, thereafter immutable").  ``EvaluationStats.finder_calls`` is
therefore bounded by the distinct finder-backed designators of the
candidate set, not by its size.
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

#: ``(category, attribute_id, value)``; a request-side key whose value is
#: None stands for every value of that identifier.
IndexKey = tuple[Category, str, Optional[str]]

#: One posting list: insertion ordinal -> element.  Ordinals only grow
#: and entries are only appended or deleted, so each list is in ordinal
#: (= store insertion) order by itself.
Postings = dict[int, PolicyElement]


def _index_keys(request: RequestContext) -> tuple[IndexKey, ...]:
    """Every index bucket a request can hit: one per value of each
    canonical identifier's bag (a multi-valued id hits several).

    An identifier the request omits yields one wildcard key (value
    None) that hits every bucket of that identifier: a PIP finder may
    supply the value at evaluation time, so no element indexed under it
    can be ruled out from the raw request.
    """
    keys: list[IndexKey] = []
    for category, attribute_id in _INDEXED_IDS:
        values = request.values(category, attribute_id)
        if not values:
            keys.append((category, attribute_id, None))
        for value in values:
            keys.append((category, attribute_id, value.lexical()))
    return tuple(keys)


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
    decisions — only which elements get *checked* — and property tests
    assert exactly that against the ``indexed=False`` oracle.

    Every element gets a monotonically increasing insertion ordinal at
    :meth:`add`; each index bucket, and the unindexable set, is a
    posting list ``ordinal -> element``.  :meth:`candidates` merges the
    posting lists the request hits and returns them in ordinal order —
    the order :meth:`elements` has, which order-dependent combining
    (first-applicable, only-one-applicable) relies on — in
    O(matches · log matches), whatever the store holds.  :meth:`add` and
    :meth:`remove` touch only the buckets of the element's own keys,
    re-derived from its (immutable) target rather than stored per
    element; a bucket goes when its last entry does.  :meth:`replace`
    re-queues the element at the end of the insertion order.

    ``analysis_gate`` opts into pre-deployment static analysis on every
    :meth:`add` and :meth:`replace`: ``"error"`` refuses elements with
    ERROR-severity findings (shadowed rules, masked effects,
    only-one-applicable overlaps), ``"warning"`` refuses on any finding
    at all.  Refusals raise :class:`AnalysisGateError` and leave the
    store unchanged — a refused replacement leaves the deployed version
    in force.
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
        #: id -> element, in insertion (= ordinal) order.
        self._elements: dict[str, PolicyElement] = {}
        self._ordinals: dict[str, int] = {}
        self._next_ordinal = 0
        self._index: dict[IndexKey, Postings] = {}
        self._unindexable: Postings = {}

    def __len__(self) -> int:
        return len(self._elements)

    def add(self, element: PolicyElement) -> None:
        identifier = child_identifier(element)
        if identifier in self._elements:
            raise ValueError(f"duplicate policy element id {identifier!r}")
        self._gate_check(identifier, element)
        self._post(identifier, element)

    def _gate_check(self, identifier: str, element: PolicyElement) -> None:
        if self.analysis_gate is None:
            return
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
        element = self._elements.pop(identifier, None)
        if element is None:
            return
        ordinal = self._ordinals.pop(identifier)
        keys = self._keys_for(element)
        if not keys:
            del self._unindexable[ordinal]
        for key in keys:
            postings = self._index[key]
            del postings[ordinal]
            if not postings:
                del self._index[key]

    def replace(self, element: PolicyElement) -> None:
        """Swap in a new version of an element (or add a first one), at
        the end of the insertion order.  The gate judges the replacement
        before the deployed version goes."""
        identifier = child_identifier(element)
        self._gate_check(identifier, element)
        self.remove(identifier)
        self._post(identifier, element)

    def get(self, identifier: str) -> Optional[PolicyElement]:
        return self._elements.get(identifier)

    def elements(self) -> list[PolicyElement]:
        return list(self._elements.values())

    def _keys_for(self, element: PolicyElement) -> list[IndexKey]:
        """The index keys an element is posted under; none means
        unindexable.

        The first AnyOf group, in target order, that soundly constrains
        a canonical identifier is the index key; a group with an
        unconstrained alternative is skipped.
        """
        if self.indexed:
            for any_of in element.target.any_ofs:
                for category, attribute_id in _INDEXED_IDS:
                    values = any_of.constraining_values(category, attribute_id)
                    if values is not None:
                        return [
                            (category, attribute_id, value) for value in values
                        ]
        return []

    def _post(self, identifier: str, element: PolicyElement) -> None:
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._elements[identifier] = element
        self._ordinals[identifier] = ordinal
        keys = self._keys_for(element)
        if not keys:
            self._unindexable[ordinal] = element
        for key in keys:
            self._index.setdefault(key, {})[ordinal] = element

    @property
    def element_count(self) -> int:
        """Top-level elements held — the per-shard state figure of E19."""
        return len(self._elements)

    def candidates(
        self,
        request: RequestContext,
        stats: Optional[EvaluationStats] = None,
        keys: Optional[tuple[IndexKey, ...]] = None,
    ) -> list[PolicyElement]:
        """Elements worth evaluating for this request, in insertion order.

        ``keys`` lets a caller that already derived the request's
        :func:`_index_keys` (the batch memo) pass them in.
        """
        if not self.indexed:
            if stats is not None:
                stats.candidate_set_size = len(self._elements)
            return self.elements()
        merged: Postings = dict(self._unindexable)
        for key in keys if keys is not None else _index_keys(request):
            category, attribute_id, value = key
            if value is None:
                # The request omits this identifier: every bucket of it.
                for posted, postings in self._index.items():
                    if posted[0] is category and posted[1] == attribute_id:
                        merged.update(postings)
            elif key in self._index:
                merged.update(self._index[key])
        if stats is not None:
            stats.policies_skipped_by_index += len(self._elements) - len(merged)
            stats.candidate_set_size = len(merged)
        return [merged[ordinal] for ordinal in sorted(merged)]

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
