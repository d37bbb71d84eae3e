"""The evaluator judged by the reference semantics (``tests/reference``).

Hypothesis draws targets with multi-alternative groups, non-equality
functions, literals whose type is not the designator's, multi-valued and
empty bags, issuer-bound and ``must_be_present`` designators, and pure
finders that sometimes answer with the wrong data type.  The engine must
agree with :mod:`reference.xacml` on every match and target and, for
whole stores under all four policy-combining algorithms, on decision,
status code and obligations, with ``PolicyStore`` indexed and
``indexed=False``, interpreting and replaying from its decision memo.
The reference takes the readings the README's ledger lists and no
other; :func:`test_ledger` pins each of them with a cell in which the
engine and the standard disagree exactly as the entry says.  (Status
messages are the engine's own, pinned in ``test_evaluation.py``; what a
finder that changes its mind does is pinned there too.)
"""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import xacml

from repro.xacml import (
    ACTION_ID,
    AllOfFunction,
    AnyOf,
    AnyOfFunction,
    AllOf,
    Attribute,
    AttributeDesignator,
    Category,
    Condition,
    DataType,
    Decision,
    EvaluationContext,
    Match,
    Obligation,
    PdpEngine,
    Policy,
    PolicyStore,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    SUBJECT_ROLE,
    StatusCode,
    Target,
    apply_,
    boolean,
    combining,
    designator,
    integer,
    literal,
    string,
    subject_resource_action_target,
    target_of,
)
from repro.xacml.expressions import Designator
from repro.xacml.functions import FUNCTION_PREFIX_1_0
from repro.xacml.policy import PolicySet
from repro.xacml.rules import Rule

# -- what hypothesis draws ---------------------------------------------------------

#: A small world, so that draws collide: the same attribute is read by
#: several designators, under several types and issuers, and matched by
#: several literals.
ATTRIBUTES = (
    (Category.SUBJECT, SUBJECT_ID),
    (Category.SUBJECT, SUBJECT_ROLE),
    (Category.RESOURCE, RESOURCE_ID),
    (Category.RESOURCE, "urn:test:level"),
    (Category.ACTION, ACTION_ID),
)
ISSUERS = (None, "idp-a", "idp-b")

values = st.one_of(
    st.sampled_from(["a", "b", "ab", "1"]).map(string),
    st.integers(min_value=0, max_value=3).map(integer),
)
match_functions = st.sampled_from(
    [
        FUNCTION_PREFIX_1_0 + name
        for name in (
            "string-equal",
            "integer-equal",
            "anyURI-equal",
            "string-regexp-match",
            "integer-greater-than",
        )
    ]
)


@st.composite
def attribute_designators(draw, data_type=None):
    category, attribute_id = draw(st.sampled_from(ATTRIBUTES))
    return AttributeDesignator(
        category=category,
        attribute_id=attribute_id,
        data_type=data_type
        or draw(st.sampled_from([DataType.STRING, DataType.INTEGER])),
        must_be_present=draw(st.booleans()),
        issuer=draw(st.sampled_from(ISSUERS)),
    )


@st.composite
def equality_matches(draw):
    """``type-equal`` over a literal and a designator of that very type
    (what ``match_equal`` builds): the compare-by-value shape."""
    value = draw(values)
    name = "string" if value.data_type is DataType.STRING else "integer"
    return Match(
        match_function=f"{FUNCTION_PREFIX_1_0}{name}-equal",
        value=value,
        designator=draw(attribute_designators(value.data_type)),
    )


matches = st.one_of(
    equality_matches(),
    # Anything goes: the types of function, literal and designator need
    # not agree, and the function need not be an equality.
    st.builds(
        Match,
        match_function=match_functions,
        value=values,
        designator=attribute_designators(),
    ),
)
all_ofs = st.builds(AllOf, matches=st.lists(matches, max_size=3).map(tuple))
# One alternative is the shape the conjunction path takes, two or more
# (and none: a group nothing satisfies) the shape it must leave alone.
any_ofs = st.builds(AnyOf, all_ofs=st.lists(all_ofs, max_size=3).map(tuple))
targets = st.builds(Target, any_ofs=st.lists(any_ofs, max_size=3).map(tuple))


@st.composite
def requests(draw):
    request = RequestContext()
    for category, attribute_id in ATTRIBUTES:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            request.add(
                category,
                Attribute(
                    attribute_id,
                    tuple(draw(st.lists(values, min_size=1, max_size=3))),
                    issuer=draw(st.sampled_from(ISSUERS)),
                ),
            )
    return request


@st.composite
def finders(draw):
    """None, or a pure finder over a drawn table.  An honest one filters
    on the data type asked for; the other hands back what it has, which
    is how a wrongly-typed value gets into a bag."""
    if draw(st.booleans()):
        return None
    table = {}
    for key in ATTRIBUTES:
        kind = draw(st.sampled_from(["absent", "strings", "integers"]))
        if kind == "strings":
            table[key] = draw(
                st.lists(st.sampled_from(["a", "b", "1"]).map(string), max_size=3)
            )
        elif kind == "integers":
            table[key] = draw(
                st.lists(st.integers(0, 3).map(integer), max_size=3)
            )
    honest = draw(st.booleans())

    def finder(category, attribute_id, data_type):
        held = table.get((category, attribute_id), [])
        if honest:
            return [value for value in held if value.data_type is data_type]
        return list(held)

    return finder


def _designator_expressions():
    return attribute_designators().map(Designator)


@st.composite
def boolean_expressions(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["is-in", "any-of", "all-of", "greater", "one-and-only"]
            + (["and", "or", "not"] if depth else [])
        )
    )
    if kind == "is-in":
        type_name = draw(st.sampled_from(["string", "integer"]))
        return apply_(
            f"{FUNCTION_PREFIX_1_0}{type_name}-is-in",
            literal(draw(values)),
            draw(_designator_expressions()),
        )
    if kind in ("any-of", "all-of"):
        node = AnyOfFunction if kind == "any-of" else AllOfFunction
        return node(
            function_id=draw(match_functions),
            value=literal(draw(values)),
            bag=draw(_designator_expressions()),
        )
    if kind == "greater":
        return apply_(
            FUNCTION_PREFIX_1_0 + "integer-greater-than",
            apply_(
                FUNCTION_PREFIX_1_0 + "integer-one-and-only",
                draw(_designator_expressions()),
            ),
            literal(draw(values)),
        )
    if kind == "one-and-only":
        # Not a boolean: the condition must call that Indeterminate.
        return apply_(
            FUNCTION_PREFIX_1_0 + "string-one-and-only",
            draw(_designator_expressions()),
        )
    operands = draw(
        st.lists(
            boolean_expressions(depth=depth - 1),
            min_size=1,
            max_size=1 if kind == "not" else 3,
        )
    )
    return apply_(FUNCTION_PREFIX_1_0 + kind, *operands)


effects = st.sampled_from([Decision.PERMIT, Decision.DENY])
sparse_targets = st.one_of(st.just(Target()), targets)


@st.composite
def rules(draw, rule_id):
    return Rule(
        rule_id=rule_id,
        effect=draw(effects),
        target=draw(sparse_targets),
        condition=draw(
            st.one_of(st.none(), boolean_expressions().map(Condition))
        ),
    )


@st.composite
def policies(draw, policy_id):
    count = draw(st.integers(min_value=1, max_value=3))
    return Policy(
        policy_id=policy_id,
        rules=tuple(draw(rules(f"{policy_id}-r{n}")) for n in range(count)),
        rule_combining=draw(
            st.sampled_from(
                [
                    combining.RULE_DENY_OVERRIDES,
                    combining.RULE_PERMIT_OVERRIDES,
                    combining.RULE_FIRST_APPLICABLE,
                ]
            )
        ),
        target=draw(sparse_targets),
        obligations=tuple(
            Obligation(f"{policy_id}-on-{effect.value}", effect)
            for effect in draw(st.lists(effects, max_size=2, unique=True))
        ),
    )


POLICY_COMBINING = (
    combining.POLICY_DENY_OVERRIDES,
    combining.POLICY_PERMIT_OVERRIDES,
    combining.POLICY_FIRST_APPLICABLE,
    combining.POLICY_ONLY_ONE_APPLICABLE,
)


@st.composite
def policy_sets(draw, set_id):
    count = draw(st.integers(min_value=1, max_value=3))
    return PolicySet(
        policy_set_id=set_id,
        children=tuple(draw(policies(f"{set_id}-p{n}")) for n in range(count)),
        policy_combining=draw(st.sampled_from(POLICY_COMBINING)),
        target=draw(sparse_targets),
        obligations=tuple(
            Obligation(f"{set_id}-on-{effect.value}", effect)
            for effect in draw(st.lists(effects, max_size=2, unique=True))
        ),
    )


@st.composite
def stores(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(st.one_of(policies(f"p{n}"), policy_sets(f"s{n}")))
        for n in range(count)
    ]


# -- the properties ----------------------------------------------------------------


def judged(response):
    """What the reference decides: decision, status code, obligations."""
    result = response.response.result
    return result.decision, result.status.code, result.obligations


ROLE = AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)


def reference_context(request, finder):
    return xacml.Context(request, finder, xacml.ENGINE)


class TestEngineAgainstTheReference:
    @settings(max_examples=1000, deadline=None)
    @given(matches, requests(), finders())
    # A value of another type than the literal's, which only a finder
    # can put in the bag: an equality match must call it an error.
    @example(
        Match(FUNCTION_PREFIX_1_0 + "string-equal", string("1"), ROLE),
        RequestContext.simple("s", "r", "a"),
        lambda *_: [integer(1)],
    )
    def test_matches(self, match, request, finder):
        got = match.evaluate(EvaluationContext(request=request, attribute_finder=finder))
        assert got.value == xacml.match(reference_context(request, finder), match)[0]

    @settings(max_examples=400, deadline=None)
    @given(targets, requests(), finders())
    def test_targets(self, target, request, finder):
        got = target.evaluate(EvaluationContext(request=request, attribute_finder=finder))
        assert got.value == xacml.target(reference_context(request, finder), target)[0]

    @settings(max_examples=300, deadline=None)
    @given(stores(), requests(), finders())
    def test_stores(self, elements, request, finder):
        for algorithm in POLICY_COMBINING:
            expected = xacml.authorization_decision(
                elements, request, algorithm, finder, xacml.ENGINE
            )
            stats = {}
            for indexed in (True, False):
                engine = PdpEngine(PolicyStore(indexed=indexed), algorithm, finder)
                engine.add_policies(elements)
                # Interpreted, then replayed from the decision memo.
                for _ in range(2):
                    got = engine.evaluate(request)
                    assert judged(got) == expected
                assert got.stats.policies_considered == got.stats.candidate_set_size
                stats[indexed] = got.stats
            assert stats[False].candidate_set_size == len(elements)
            # The index only drops elements that cannot match: it can
            # only ask the finder less.
            assert stats[True].finder_calls <= stats[False].finder_calls

    @given(st.text(), st.text(), st.one_of(st.none(), st.text()),
           st.one_of(st.none(), st.text()))
    def test_hostile_identifiers_cannot_forge_a_bag_key(
        self, id_one, id_other, issuer_one, issuer_other
    ):
        one = AttributeDesignator(
            Category.SUBJECT, id_one, DataType.STRING, issuer=issuer_one
        )
        other = AttributeDesignator(
            Category.SUBJECT, id_other, DataType.STRING, issuer=issuer_other
        )
        assert (one.bag_key == other.bag_key) == (
            (id_one, issuer_one) == (id_other, issuer_other)
        )


# -- the ledger --------------------------------------------------------------------

ALICE = RequestContext.simple("alice", "doc", "read")
PERMIT, DENY, INDETERMINATE = Decision.PERMIT, Decision.DENY, Decision.INDETERMINATE
OK, ERROR = StatusCode.OK, StatusCode.PROCESSING_ERROR


def policy(policy_id, *rules, **fields):
    return Policy(policy_id, rules, **fields)


def broken(effect=PERMIT):
    """Indeterminate for any request: the condition is not a boolean."""
    return Rule("broken", effect, condition=Condition(literal(string("not a boolean"))))


def short_circuit(function):
    """``and(false, x)`` or ``or(true, x)``, ``x`` the one value of an empty bag."""
    absent = designator(Category.SUBJECT, "urn:test:absent", DataType.INTEGER)
    failing = apply_(FUNCTION_PREFIX_1_0 + "integer-one-and-only", absent)
    first = literal(boolean(function == "or"))
    condition = Condition(apply_(FUNCTION_PREFIX_1_0 + function, first, failing))
    return Rule("r", PERMIT, condition=condition)


CLEARANCE = AttributeDesignator(
    Category.SUBJECT, "urn:x:clearance", DataType.STRING, must_be_present=True
)
NEEDS_CLEARANCE = target_of(Match(FUNCTION_PREFIX_1_0 + "string-equal", string("top"), CLEARANCE))
BOB_ONLY = Rule("bob", PERMIT, target=subject_resource_action_target("bob"))
FIRST = combining.POLICY_FIRST_APPLICABLE

#: One cell per entry of the README's "Where the engine departs from
#: XACML 2.0": the reading, the store, the policy-combining algorithm,
#: the engine's ``(decision, status code)`` and the standard's.
LEDGER_CELLS = [
    pytest.param(
        "policy-deny-overrides", [policy("p1", broken()), policy("p2", Rule("r", PERMIT))],
        combining.POLICY_DENY_OVERRIDES, (INDETERMINATE, ERROR), (DENY, OK),
        id="policy-deny-overrides",
    ),
    pytest.param(
        "policy-permit-overrides", [policy("p1", broken()), policy("p2", Rule("r", DENY))],
        combining.POLICY_PERMIT_OVERRIDES, (INDETERMINATE, ERROR), (DENY, OK),
        id="policy-permit-overrides",
    ),
    *(
        pytest.param(
            "rule-effects", [policy("p", broken(effect), Rule("r", effect), rule_combining=rules)],
            FIRST, (INDETERMINATE, ERROR), (effect, OK),
            id=f"rule-effects-{effect.value.lower()}",
        )
        for rules, effect in (
            (combining.RULE_DENY_OVERRIDES, PERMIT),
            (combining.RULE_PERMIT_OVERRIDES, DENY),
        )
    ),
    pytest.param(
        "only-one-by-decision", [policy("p1", BOB_ONLY), policy("p2", Rule("r", PERMIT))],
        combining.POLICY_ONLY_ONE_APPLICABLE, (PERMIT, OK), (INDETERMINATE, ERROR),
        id="only-one-by-decision",
    ),
    pytest.param(
        "target-status-ok", [policy("p", Rule("r", PERMIT), target=NEEDS_CLEARANCE)],
        FIRST, (INDETERMINATE, OK), (INDETERMINATE, StatusCode.MISSING_ATTRIBUTE),
        id="target-status-ok",
    ),
    *(
        pytest.param(
            "eager-and-or", [policy("p", short_circuit(function))],
            FIRST, (INDETERMINATE, ERROR), (spec, OK),
            id=f"eager-{function}",
        )
        for function, spec in (("and", Decision.NOT_APPLICABLE), ("or", PERMIT))
    ),
]


@pytest.mark.parametrize("reading, elements, algorithm, engine, spec", LEDGER_CELLS)
def test_ledger(reading, elements, algorithm, engine, spec):
    """The engine answers ``engine``, the standard ``spec``, and the
    entry's reading alone turns the second into the first."""
    pdp = PdpEngine(policy_combining=algorithm)
    pdp.add_policies(elements)
    assert judged(pdp.evaluate(ALICE))[:2] == engine
    for readings, expected in ((xacml.SPEC, spec), (frozenset({reading}), engine)):
        decided = xacml.authorization_decision(elements, ALICE, algorithm, None, readings)
        assert decided[:2] == expected


def test_every_reading_has_its_cell():
    assert {cell.values[0] for cell in LEDGER_CELLS} == set(xacml.LEDGER)


# -- laziness and shape ------------------------------------------------------------


def role_is(role):
    """A condition only the attribute finder can answer."""
    return Condition(
        apply_(
            FUNCTION_PREFIX_1_0 + "string-is-in",
            literal(string(role)),
            Designator(
                AttributeDesignator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING)
            ),
        )
    )


def deciding_child(decision):
    """A child that decides from the request alone, with one obligation
    for either effect."""
    if decision is Decision.INDETERMINATE:
        rules = (
            Rule(
                "broken",
                Decision.PERMIT,
                condition=Condition(literal(string("not a boolean"))),
            ),
        )
    else:
        rules = (Rule("decides", decision),)
    return Policy(
        policy_id="first",
        rules=rules,
        obligations=(
            Obligation("first-on-permit", Decision.PERMIT),
            Obligation("first-on-deny", Decision.DENY),
        ),
    )


#: Per policy-combining algorithm, a first child that settles it.
SHORT_CIRCUITS = (
    (combining.POLICY_DENY_OVERRIDES, Decision.DENY),
    (combining.POLICY_PERMIT_OVERRIDES, Decision.PERMIT),
    (combining.POLICY_FIRST_APPLICABLE, Decision.PERMIT),
    (combining.POLICY_FIRST_APPLICABLE, Decision.INDETERMINATE),
    (combining.POLICY_ONLY_ONE_APPLICABLE, Decision.INDETERMINATE),
)


class TestLaziness:
    """Children after the deciding one are never evaluated: their
    obligations do not flow, their finder is never asked."""

    def late_child(self):
        return Policy(
            policy_id="late",
            rules=(Rule("needs-role", Decision.PERMIT, condition=role_is("admin")),),
            obligations=(
                Obligation("late-on-permit", Decision.PERMIT),
                Obligation("late-on-deny", Decision.DENY),
            ),
        )

    def decide(self, element, algorithm=combining.POLICY_DENY_OVERRIDES):
        asked = []

        def finder(category, attribute_id, data_type):
            asked.append(attribute_id)
            return [string("admin")]

        engine = PdpEngine(policy_combining=algorithm, attribute_finder=finder)
        engine.add_policy(element)
        request = RequestContext.simple("alice", "doc", "read")
        got = engine.evaluate(request)
        asked_by_engine = list(asked)
        assert judged(got) == xacml.authorization_decision(
            [element], request, algorithm, finder, xacml.ENGINE
        )
        return got, asked_by_engine

    @pytest.mark.parametrize("algorithm, decision", SHORT_CIRCUITS)
    def test_a_policy_set_stops_at_the_deciding_child(self, algorithm, decision):
        outer = PolicySet(
            policy_set_id="outer",
            children=(deciding_child(decision), self.late_child()),
            policy_combining=algorithm,
            obligations=(
                Obligation("outer-on-permit", Decision.PERMIT),
                Obligation("outer-on-deny", Decision.DENY),
            ),
        )
        got, asked = self.decide(outer)
        assert got.decision is decision
        assert asked == [] and got.stats.finder_calls == 0
        suffix = {Decision.PERMIT: "permit", Decision.DENY: "deny"}.get(decision)
        assert [ob.obligation_id for ob in got.response.result.obligations] == (
            [f"first-on-{suffix}", f"outer-on-{suffix}"] if suffix else []
        )

    @pytest.mark.parametrize("algorithm, decision", SHORT_CIRCUITS)
    def test_the_engine_stops_at_the_deciding_candidate(self, algorithm, decision):
        asked = []

        def finder(category, attribute_id, data_type):
            asked.append(attribute_id)
            return [string("admin")]

        engine = PdpEngine(policy_combining=algorithm, attribute_finder=finder)
        engine.add_policies([deciding_child(decision), self.late_child()])
        got = engine.evaluate(RequestContext.simple("alice", "doc", "read"))
        assert got.decision is decision
        assert got.stats.policies_considered == 2
        assert asked == [] and got.stats.finder_calls == 0

    def test_a_policy_stops_at_the_deciding_rule(self):
        policy = Policy(
            policy_id="p",
            rules=(
                Rule("deny-first", Decision.DENY),
                Rule("needs-role", Decision.PERMIT, condition=role_is("admin")),
            ),
        )
        got, asked = self.decide(policy)
        assert got.decision is Decision.DENY
        assert asked == []

    def test_every_child_is_reached_when_none_decides(self):
        outer = PolicySet(
            policy_set_id="outer",
            children=(deciding_child(Decision.PERMIT), self.late_child()),
            policy_combining=combining.POLICY_DENY_OVERRIDES,
        )
        got, asked = self.decide(outer)
        assert got.decision is Decision.PERMIT
        assert asked == [SUBJECT_ROLE]
        assert [ob.obligation_id for ob in got.response.result.obligations] == [
            "first-on-permit",
            "late-on-permit",
        ]

    def test_a_condition_that_is_not_a_boolean_is_indeterminate(self):
        for value in (string("true"), integer(1)):
            policy = Policy(
                policy_id="p",
                rules=(
                    Rule("r", Decision.PERMIT, condition=Condition(literal(value))),
                ),
            )
            got, _ = self.decide(policy)
            assert got.decision is Decision.INDETERMINATE
            assert "expected boolean" in got.response.result.status.message


class TestShape:
    """What the evaluator no longer builds, pinned by looking."""

    def test_deciding_enters_no_per_child_closure(self):
        policy = Policy(
            policy_id="p",
            rules=tuple(
                Rule(f"r{n}", Decision.PERMIT, condition=role_is(f"role-{n}"))
                for n in range(3)
            ),
            rule_combining=combining.RULE_PERMIT_OVERRIDES,
        )
        engine = PdpEngine(attribute_finder=lambda *_: [string("role-2")])
        engine.add_policy(policy)
        request = RequestContext.simple("alice", "doc", "read")
        entered = []

        def profiler(frame, event, arg):
            if event == "call":
                entered.append(frame.f_code.co_name)

        sys.setprofile(profiler)
        try:
            response = engine.evaluate(request)
        finally:
            sys.setprofile(None)
        assert response.decision is Decision.PERMIT
        assert "outcome" in entered and entered.count("outcome") == 3
        # The finder above is this test's own lambda; the evaluator's
        # frames are what is being pinned.
        assert entered.count("<lambda>") == 1
        assert not {"run", "_rule_outcome", "make_evaluable", "child_evaluable"} & set(
            entered
        )

    def test_same_residue_elements_share_one_residue_object(self):
        store = PolicyStore()
        for index in range(1000):
            store.add(
                Policy(
                    policy_id=f"p{index}",
                    rules=(Rule("r", Decision.PERMIT),),
                    target=subject_resource_action_target(
                        resource_id=f"res-{index % 250}", action_id="read"
                    ),
                )
            )
        (shared, uses), = store._residues.values()
        assert uses == 1000
        residues = [
            residue
            for bag in store._index.values()
            for bucket in bag.buckets.values()
            for residue in bucket
        ]
        assert len(residues) == 250
        assert all(residue is shared for residue in residues)
        # ... and nothing is kept per element beside its posting.
        assert sum(
            len(postings)
            for bag in store._index.values()
            for bucket in bag.buckets.values()
            for postings in bucket.values()
        ) == 1000
