"""The XACML evaluation engine: what beats inside every PDP.

The engine evaluates a request context against a policy store and returns
a response context.  :class:`PolicyStore` holds the top-level elements
and picks the ones worth evaluating:

* ``indexed=False`` — the straightforward "evaluate every element" model
  of the standard.  Both forms are judged by the same reference
  semantics, an interpreter written from XACML 2.0 under
  ``tests/reference/`` (``tests/xacml/test_evaluation_reference.py``);
* ``indexed=True`` (the default) — target indexing: a request is handed
  only the elements whose target can still match it.  This is the
  mechanism behind the scalability shape of experiment E14.

**The index.**  What a target says about a canonical identifier is read
through one walk, :meth:`~repro.xacml.targets.AnyOf.pins`: per
alternative of a group, the equality matches that compare by value, as
``(designator, literal)``.  The posting key is *a bag and a value* —
``designator.bag_key`` (category, data type, attribute id and issuer:
exactly what an evaluation fetches) and the literal's value, whose
``==`` and ``hash`` are the compare the engine itself makes between
values of one type.  An element is posted under the first group of its
target that pins every alternative, once per alternative, in a
two-level ``bag -> value -> postings`` table; what its *other* pinned
groups require rides along as a **residue**, ``((bag key, value), ...)``
per group — one pair per alternative — one shared object per distinct
residue per store.

**The request side** asks, per bag the index reads, what
``request.bag(category, id, data type, issuer)`` holds — the very call
an evaluation makes first — and:

* a bag the request carries selects the buckets of its values, and a
  residue group all of whose bags are carried, none holding the value
  its alternative wants, drops the postings.  This is sound because such a
  match is *definite*: the evaluator looks at the request first and asks
  the finder only when the request's bag is empty, every carried value
  has the designator's type, so the match is NO_MATCH and cannot be
  Indeterminate; and in a conjunction (alternative, target) a definite
  NO_MATCH dominates whatever its siblings do, Indeterminate included
  (XACML 2.0 §7.6; Tang's formal-semantics survey, PAPERS.md).  An
  element is dropped only there;
* **an empty answer is the wildcard**: the finder may supply the bag, so
  nothing keyed or filtered by it can be ruled out — every bucket of
  that bag is walked (and of it only), and a residue alternative on it
  admits.

So ``candidates(request)`` is a superset of the elements whose target
does not evaluate NO_MATCH — stronger than "same decisions", and what
``tests/xacml/test_properties.py`` holds the store to.

Cost model (``K`` = alternatives of the posting group, ``G`` = further
pinned groups of one element): ``candidates()`` is one ``request.bag``
per bag the index reads (one to three on every store we have) plus
O(hit postings + residues of the hit buckets), and never looks at the
rest of the store; ``add()``, ``remove()`` and ``replace()`` are
O(K + G) — the plan is re-derived from the (immutable) target, nothing
is kept per element.  A request that *omits* an identifier walks every
bucket of that one bag.

Cost model of evaluation, the other half of a decision.  Per candidate:
its target is one flat conjunction of matches (what
:func:`~repro.xacml.targets.target_of` builds), each a probe of the
decision's bag table and a value compare, stopping at the first
NO_MATCH; only candidates whose target matches go on to run their
rules' conditions, with functions and combining algorithms bound when
the policy was built, and a combining algorithm pulls its children's
outcomes one at a time (:mod:`~repro.xacml.combining`), so what follows
the deciding child is never evaluated.  Per decision: each distinct
designator is fetched once — one scan of the request's category and, if
that finds nothing, one call to the attribute finder — however many
candidates, rules and matches read it (:meth:`~repro.xacml.expressions.
EvaluationContext.resolve`; XACML's "populated before it is first
tested, thereafter immutable").  ``EvaluationStats.finder_calls`` is
therefore bounded by the distinct finder-backed designators of the
candidate set, not by its size.

**The decision memo.**  So a decision is a function of the candidates
and of the bags the evaluation fetched, in the order it first fetched
them — and each fetch is decided by the bags before it.  Each store
keeps a trie of what it has decided, per policy-combining algorithm:

* **the root key** is the candidates' insertion ordinals, in candidate
  order — ordinals are never reused, and :meth:`PolicyStore.replace`
  re-queues under a fresh one, so a key names immutable elements for
  good; the memo lives on the store, whose ordinals are its own;
* **below the root** a node names the designator fetched next and
  branches on the bag it yielded, keyed by each value's data type and
  lexical form (``AttributeValue`` equality merges ``0.0`` and
  ``-0.0``); the leaf is the combined decision, status and obligations.

A hit walks the trie fetching each bag as the interpreter would
(:meth:`~repro.xacml.expressions.EvaluationContext.fetch`, request then
finder, in first-fetch order, without the ``must_be_present`` raise the
leaf already accounts for), so finder calls, PIP round trips and
``EvaluationStats`` are what interpretation gives; a miss interprets
over the bags already fetched and records its path.  Not remembered:
an element with a ``PolicyReference`` anywhere below it (its answer
reads the store), and an evaluation that met a function id the registry
does not know yet.  Memory is bounded by constants: :data:`MEMO_NODES`
per store, past which the memo starts over, and :data:`MEMO_FANOUT`
bags per node, past which the node stops learning and drops its
children (a subject-id read: one branch per subject would learn
nothing).  Finders answer with a list; one that raises is outside the
contract either way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Union

from . import combining
from .attributes import AttributeDesignator, Bag, DataType
from .context import (
    Decision,
    Obligation,
    RequestContext,
    ResponseContext,
    Status,
)
from .expressions import AttributeFinder, EvaluationContext
from .policy import (
    Policy,
    PolicyReference,
    PolicyResult,
    PolicySet,
    _result,
    child_identifier,
    outcomes,
)

if TYPE_CHECKING:  # analysis imports this module
    from .analysis.findings import AnalysisReport

PolicyElement = Union[Policy, PolicySet]

#: One posting list: insertion ordinal -> element.  Ordinals only grow
#: and entries are only appended or deleted, so each list is in ordinal
#: (= store insertion) order by itself.
Postings = dict[int, PolicyElement]

#: What an element's target pins beyond the group it is posted under:
#: per further pinned group, per alternative, the bag it reads and the
#: value it wants there — ``((bag_key, value), ...)`` per group.
ResidueGroup = tuple[tuple[str, Any], ...]
Residue = tuple[ResidueGroup, ...]

#: One ``(bag, value)`` bucket: the postings under it, by residue.
Bucket = dict[Residue, Postings]


class _IndexedBag:
    """One bag the index reads: the designator that fetches it from a
    request, the buckets posted under it by value, and how many times
    the store's residues name it (once per alternative that reads it)."""

    __slots__ = ("designator", "buckets", "residue_uses")

    def __init__(self, designator: AttributeDesignator) -> None:
        self.designator = designator
        self.buckets: dict[Any, Bucket] = {}
        self.residue_uses = 0


_VALUE_OF = operator.attrgetter("value")

#: Nodes the decision memo of one store may hold, roots and leaves
#: included; a record that would pass it empties the memo instead.
MEMO_NODES = 1 << 14
#: Distinct bags one memo node learns before it stops learning and
#: drops its children (a subject-id read fans out per subject).
MEMO_FANOUT = 32


class _Fetch:
    """A decision-memo node: the designator the evaluation fetches
    next, and what follows per bag it yields (by :func:`_bag_key`) —
    another node or the leaf, the combined :class:`PolicyResult`.

    ``children`` is one ``(bag key, next)`` pair while the node has
    seen one bag (a dict costs four times the node), a dict from the
    second, and None once the node stopped learning."""

    __slots__ = ("designator", "children")

    def __init__(self, designator: AttributeDesignator, children: Any) -> None:
        self.designator = designator
        self.children = children

    def next(self, slot: Any) -> Any:
        children = self.children
        if type(children) is tuple:
            return children[1] if slot == children[0] else None
        return None if children is None else children.get(slot)


def _bag_key(bag: Bag, data_type: DataType) -> Any:
    """What tells two bags apart for the memo: each value's data type
    and lexical form, in order.  ``AttributeValue`` equality is coarser
    (``double(0.0) == double(-0.0)``).  A single value of the
    designator's own type, the common case, is its lexical string."""
    values = bag.values
    if len(values) == 1 and values[0].data_type is data_type:
        return values[0].lexical()
    return tuple([(value.data_type, value.lexical()) for value in values])


def _reads_store(element: Any) -> bool:
    """Does evaluating ``element`` resolve a reference against the store?"""
    if isinstance(element, PolicyReference):
        return True
    return isinstance(element, PolicySet) and any(map(_reads_store, element.children))


@dataclass
class EvaluationStats:
    """Per-request work counters, surfaced to benchmarks."""

    policies_considered: int = 0
    policies_skipped_by_index: int = 0
    finder_calls: int = 0
    #: Size of the candidate set the store produced for this request —
    #: the index-selectivity figure E19 reports per shard.
    candidate_set_size: int = 0


class PolicyStore:
    """Holds top-level policy elements and finds the applicable ones.

    With ``indexed=True`` the store keeps, per bag its targets pin
    (:meth:`~repro.xacml.targets.AnyOf.pins`) and per pinned value, the
    elements posted there, grouped by what the rest of their target
    pins (the residue; see the module docstring for the key, the
    wildcard rule and why both are sound).  A request is handed the
    postings of the buckets it hits whose residue it can still satisfy,
    plus all unindexable elements.  Indexing never changes decisions —
    only which elements get *checked*: property tests judge both forms
    by the reference semantics and hold the candidates to the stronger
    superset property.

    Every element gets a monotonically increasing insertion ordinal at
    :meth:`add`; each posting list, and the unindexable set, maps
    ``ordinal -> element``.  :meth:`candidates` merges the posting lists
    the request is admitted to and returns them in ordinal order — the
    order :meth:`elements` has, which order-dependent combining
    (first-applicable, only-one-applicable) relies on — in
    O(matches · log matches), whatever the store holds.  :meth:`add` and
    :meth:`remove` touch only the buckets of the element's own keys,
    re-derived from its (immutable) target rather than stored per
    element; a posting list, bucket, bag or residue goes when its last
    user does.  :meth:`replace` re-queues the element at the end of the
    insertion order.
    """

    def __init__(self, indexed: bool = True) -> None:
        self.indexed = indexed
        #: id -> element, in insertion (= ordinal) order.
        self._elements: dict[str, PolicyElement] = {}
        self._ordinals: dict[str, int] = {}
        self._next_ordinal = 0
        #: bag key -> the bags the index reads, in the order
        #: :meth:`_carried` reports them; an entry goes when nothing is
        #: posted under it and no residue names it.
        self._index: dict[str, _IndexedBag] = {}
        #: residue -> [the one shared object, elements posted with it];
        #: while it is here, each bag it names counts one residue use.
        self._residues: dict[Residue, list[Any]] = {}
        self._unindexable: Postings = {}
        #: The decision memo: policy-combining id -> root key (the
        #: candidates' ordinals) -> trie node or leaf.
        self._memo: dict[str, dict[tuple[int, ...], Any]] = {}
        self._memo_nodes = 0
        #: Ordinals of the elements holding a PolicyReference: their
        #: answers read the store, so they are never remembered.
        self._reads_store: set[int] = set()

    def __len__(self) -> int:
        return len(self._elements)

    def add(self, element: PolicyElement) -> None:
        identifier = child_identifier(element)
        if identifier in self._elements:
            raise ValueError(f"duplicate policy element id {identifier!r}")
        self._post(identifier, element)

    def remove(self, identifier: str) -> None:
        element = self._elements.pop(identifier, None)
        if element is None:
            return
        ordinal = self._ordinals.pop(identifier)
        self._reads_store.discard(ordinal)
        posted, residue, _ = self._plan(element)
        if not posted:
            del self._unindexable[ordinal]
            return
        index = self._index
        shared = self._residues[residue]
        shared[1] -= 1
        if not shared[1]:
            del self._residues[residue]
            for group in residue:
                for bag_key, _ in group:
                    bag = index[bag_key]
                    bag.residue_uses -= 1
                    if not bag.residue_uses and not bag.buckets:
                        del index[bag_key]
        for bag_key, value in posted:
            bag = index[bag_key]
            bucket = bag.buckets[value]
            postings = bucket[residue]
            del postings[ordinal]
            if not postings:
                del bucket[residue]
                if not bucket:
                    del bag.buckets[value]
                    if not bag.buckets and not bag.residue_uses:
                        del index[bag_key]

    def replace(self, element: PolicyElement) -> None:
        """Swap in a new version of an element (or add a first one), at
        the end of the insertion order."""
        identifier = child_identifier(element)
        self.remove(identifier)
        self._post(identifier, element)

    def get(self, identifier: str) -> Optional[PolicyElement]:
        return self._elements.get(identifier)

    def elements(self) -> list[PolicyElement]:
        return list(self._elements.values())

    def _plan(
        self, element: PolicyElement
    ) -> tuple[
        dict[tuple[str, Any], AttributeDesignator],
        Residue,
        list[AttributeDesignator],
    ]:
        """Where an element is posted and what it must still satisfy.

        One walk of the target (it is immutable, so the plan is
        re-derived at removal rather than stored per element).  The
        first group that pins every alternative
        (:meth:`~repro.xacml.targets.AnyOf.pins`) gives the posting
        keys, ``(bag key, value) -> designator``, one per alternative;
        none means unindexable.  Every later pinned group gives one
        group of the residue, and ``read`` lists the designators of the
        bags the residue names, one per alternative.  An alternative that pins several
        identifiers is taken by its first: any one definite NO_MATCH
        settles a conjunction.
        """
        posted: dict[tuple[str, Any], AttributeDesignator] = {}
        residue: list[ResidueGroup] = []
        read: list[AttributeDesignator] = []
        if self.indexed:
            for any_of in element.target.any_ofs:
                pinned = any_of.pins()
                if pinned is None:
                    continue
                if not posted:
                    for pins in pinned:
                        designator, value = pins[0]
                        posted[designator.bag_key, value.value] = designator
                    continue
                group = []
                for pins in pinned:
                    designator, value = pins[0]
                    group.append((designator.bag_key, value.value))
                    read.append(designator)
                residue.append(tuple(group))
        return posted, tuple(residue), read

    def _bag(self, designator: AttributeDesignator) -> _IndexedBag:
        bag = self._index.get(designator.bag_key)
        if bag is None:
            bag = self._index[designator.bag_key] = _IndexedBag(designator)
        return bag

    def _post(self, identifier: str, element: PolicyElement) -> None:
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._elements[identifier] = element
        self._ordinals[identifier] = ordinal
        if type(element) is not Policy and _reads_store(element):
            self._reads_store.add(ordinal)
        posted, residue, read = self._plan(element)
        if not posted:
            self._unindexable[ordinal] = element
            return
        # Equal residues are one object store-wide: what is kept per
        # bucket is a pointer to it, not a copy.
        shared = self._residues.get(residue)
        if shared is None:
            shared = self._residues[residue] = [residue, 0]
            for designator in read:
                self._bag(designator).residue_uses += 1
        shared[1] += 1
        residue = shared[0]
        for (_, value), designator in posted.items():
            buckets = self._bag(designator).buckets
            bucket = buckets.get(value)
            if bucket is None:
                bucket = buckets[value] = {}
            postings = bucket.get(residue)
            if postings is None:
                postings = bucket[residue] = {}
            postings[ordinal] = element

    @property
    def element_count(self) -> int:
        """Top-level elements held — the per-shard state figure of E19."""
        return len(self._elements)

    def _carried(self, request: RequestContext) -> dict[str, tuple[Any, ...]]:
        """What the request itself holds for each bag the index reads,
        by bag key, in index order — all :meth:`candidates` depends on,
        and so (its values) the key of the batch memo.  Empty is "not
        carried"."""
        carried = {}
        for bag_key, bag in self._index.items():
            designator = bag.designator
            values = request.bag(
                designator.category,
                designator.attribute_id,
                designator.data_type,
                designator.issuer,
            ).values
            carried[bag_key] = tuple(map(_VALUE_OF, values))
        return carried

    def candidates(
        self,
        request: RequestContext,
        stats: Optional[EvaluationStats] = None,
    ) -> list[PolicyElement]:
        """Elements worth evaluating for this request, in insertion order."""
        return self._select(request, stats)[1]

    def _select(
        self,
        request: RequestContext,
        stats: Optional[EvaluationStats] = None,
        carried: Optional[dict[str, tuple[Any, ...]]] = None,
    ) -> tuple[tuple[int, ...], list[PolicyElement]]:
        """:meth:`candidates`, with their ordinals in the same order:
        the root key of the decision memo."""
        if not self.indexed:
            if stats is not None:
                stats.candidate_set_size = len(self._elements)
            return tuple(self._ordinals.values()), self.elements()
        if carried is None:
            carried = self._carried(request)
        admitted: list[Postings] = []
        for bag_key, values in carried.items():
            buckets = self._index[bag_key].buckets
            if not buckets:
                continue  # read by residues only
            # A bag the request does not carry may be supplied by the
            # finder: every bucket of that bag, and of it only.
            hit: Iterable[Optional[Bucket]] = (
                map(buckets.get, values) if values else buckets.values()
            )
            for bucket in hit:
                if bucket is None:
                    continue
                for residue, postings in bucket.items():
                    for group in residue:
                        for key, wanted in group:
                            held = carried[key]
                            if not held or wanted in held:
                                break  # the group may still match
                        else:
                            break  # definitely NO_MATCH: drop the postings
                    else:
                        admitted.append(postings)
        if len(admitted) == 1 and not self._unindexable:
            # One posting list is in insertion order by itself.
            key = tuple(admitted[0])
            found = list(admitted[0].values())
        else:
            merged: Postings = dict(self._unindexable)
            for postings in admitted:
                merged.update(postings)
            key = tuple(sorted(merged))
            found = [merged[ordinal] for ordinal in key]
        if stats is not None:
            stats.policies_skipped_by_index += len(self._elements) - len(found)
            stats.candidate_set_size = len(found)
        return key, found

    def _memo_roots(
        self, policy_combining: str, key: tuple[int, ...]
    ) -> Optional[dict[tuple[int, ...], Any]]:
        """The memo roots of one combining algorithm, or None when a
        candidate under ``key`` reads the store."""
        if self._reads_store and not self._reads_store.isdisjoint(key):
            return None
        roots = self._memo.get(policy_combining)
        if roots is None:
            roots = self._memo[policy_combining] = {}
        return roots

    def _remember(
        self,
        roots: dict[tuple[int, ...], Any],
        key: tuple[int, ...],
        holder: Optional[_Fetch],
        slot: Any,
        fetched: list[tuple[AttributeDesignator, Bag]],
        leaf: PolicyResult,
    ) -> None:
        """Record the rest of a path the memo missed: one node per bag
        fetched after the walk ended, then the leaf, under ``slot`` of
        the last node walked (``holder``; None: the root ``key``)."""
        if holder is not None and holder.children is None:
            return  # stopped learning
        if self._memo_nodes + len(fetched) >= MEMO_NODES:
            for held in self._memo.values():
                held.clear()
            self._memo_nodes = 0
            return  # ``holder`` went with the rest; the next miss starts over
        branch: Any = leaf
        for designator, bag in reversed(fetched):
            branch = _Fetch(designator, (_bag_key(bag, designator.data_type), branch))
        self._memo_nodes += len(fetched) + 1
        if holder is None:
            roots[key] = branch
            return
        # ``holder`` is read here, not when the walk ended: a finder that
        # calls out may have let other evaluations grow it meanwhile.
        children = holder.children
        if type(children) is tuple:
            holder.children = dict((children, (slot, branch)))
        elif len(children) < MEMO_FANOUT:
            children[slot] = branch
        else:
            holder.children = None


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
        store = self.store
        key, candidates = store._select(request, stats)
        return self._evaluate_candidates(
            store, request, key, candidates, stats, current_time, self.attribute_finder
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
        batch shares target-index lookups: requests that carry the same
        values for the bags the index reads resolve their candidate list
        once.  The store is not refreshed or mutated between elements —
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
        store = self.store
        memo: dict[
            tuple[tuple[Any, ...], ...],
            tuple[tuple[int, ...], list[PolicyElement]],
        ] = {}
        responses: list[EngineResponse] = []
        for request in requests:
            self.evaluations += 1
            stats = EvaluationStats()
            carried = store._carried(request)
            shared = tuple(carried.values())
            selected = memo.get(shared)
            if selected is None:
                selected = memo[shared] = store._select(request, stats, carried)
            else:
                self.candidate_lookups_shared += 1
                if store.indexed:
                    stats.policies_skipped_by_index = len(store) - len(selected[1])
                stats.candidate_set_size = len(selected[1])
            finder = (
                finder_for(request)
                if finder_for is not None
                else self.attribute_finder
            )
            responses.append(
                self._evaluate_candidates(
                    store, request, *selected, stats, current_time, finder
                )
            )
        return responses

    def _evaluate_candidates(
        self,
        store: PolicyStore,
        request: RequestContext,
        key: tuple[int, ...],
        candidates: list[PolicyElement],
        stats: EvaluationStats,
        current_time: float,
        attribute_finder: Optional[AttributeFinder],
    ) -> EngineResponse:
        """Combine the candidate elements' results into one response:
        from the store's decision memo when it holds the path the
        request's bags take, by interpretation otherwise."""
        ctx = EvaluationContext(
            request=request,
            current_time=current_time,
            attribute_finder=attribute_finder,
            reference_resolver=store.get,
        )
        stats.policies_considered = len(candidates)
        roots = store._memo_roots(self.policy_combining, key)
        node = None if roots is None else roots.get(key)
        holder, slot = None, key
        while type(node) is _Fetch:
            holder, designator = node, node.designator
            slot = _bag_key(ctx.fetch(designator), designator.data_type)
            node = node.next(slot)
        if node is not None:
            decision, status, obligations = (
                node.decision,
                node.status,
                node.obligations,
            )
        else:
            walked = len(ctx.fetched)
            collected: list[Obligation] = []
            decision, status = combining.lookup(self.policy_combining)(
                outcomes(candidates, ctx, collected)
            )
            # A child's obligations attach to its own decision, so those
            # of the combined decision are those of the children that
            # took it.
            obligations = tuple(
                [ob for ob in collected if ob.fulfill_on is decision]
            )
            if roots is not None and not ctx.unbound_function:
                store._remember(
                    roots,
                    key,
                    holder,
                    slot,
                    ctx.fetched[walked:],
                    _result(decision, status, obligations),
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

    def analyze(self) -> "AnalysisReport":
        """Statically analyze the whole store under this engine's
        policy-combining algorithm (see :mod:`repro.xacml.analysis`)."""
        from .analysis import analyze

        return analyze(self.store, policy_combining=self.policy_combining)


def evaluate_element(
    element: PolicyElement,
    request: RequestContext,
) -> PolicyResult:
    """Evaluate a single policy element outside any engine: at time 0,
    with no attribute finder and no policy references resolved."""
    return element.evaluate(EvaluationContext(request=request))
