"""Tests for the analyzer's constraint algebra (repro.xacml.analysis.predicates)."""

import pytest

from repro.xacml import (
    Category,
    DataType,
    attribute_equals,
    functions,
    integer,
    match_equal,
    permit_rule,
    string,
    subject_resource_action_target,
    target_of,
)
from repro.xacml.attributes import RESOURCE_ID, SUBJECT_ID, SUBJECT_ROLE, AttributeValue
from repro.xacml.expressions import (
    Condition,
    apply_,
    designator,
    literal,
)
from repro.xacml.targets import AllOf, AnyOf, AttributeDesignator, Match, Target
from repro.xacml.analysis.predicates import (
    MAX_CLAUSES,
    AttributeConstraint,
    Clause,
    NormalizedTarget,
    Tri,
    UNCONSTRAINED,
    interpret_condition,
    match_constraint,
    match_may_error,
    normalize_target,
    rule_view,
    tri_all,
)

INT_GT = f"{functions.FUNCTION_PREFIX_1_0}integer-greater-than"
INT_GTE = f"{functions.FUNCTION_PREFIX_1_0}integer-greater-than-or-equal"
INT_LT = f"{functions.FUNCTION_PREFIX_1_0}integer-less-than"
INT_LTE = f"{functions.FUNCTION_PREFIX_1_0}integer-less-than-or-equal"
STRING_EQUAL = f"{functions.FUNCTION_PREFIX_1_0}string-equal"
INT_EQUAL = f"{functions.FUNCTION_PREFIX_1_0}integer-equal"

CLEARANCE = "urn:example:clearance"


def int_match(function_id: str, value: int) -> Match:
    return Match(
        match_function=function_id,
        value=integer(value),
        designator=AttributeDesignator(
            category=Category.SUBJECT,
            attribute_id=CLEARANCE,
            data_type=DataType.INTEGER,
        ),
    )


def int_constraint(**kwargs) -> AttributeConstraint:
    return AttributeConstraint(
        category=Category.SUBJECT,
        attribute_id=CLEARANCE,
        data_type=DataType.INTEGER,
        **kwargs,
    )


def string_constraint(attribute_id=SUBJECT_ID, **kwargs) -> AttributeConstraint:
    return AttributeConstraint(
        category=Category.SUBJECT,
        attribute_id=attribute_id,
        data_type=DataType.STRING,
        **kwargs,
    )


class TestTri:
    def test_truthiness_is_forbidden(self):
        with pytest.raises(TypeError):
            bool(Tri.YES)

    def test_tri_all(self):
        assert tri_all([Tri.YES, Tri.YES]) is Tri.YES
        assert tri_all([Tri.YES, Tri.NO, Tri.UNKNOWN]) is Tri.NO
        assert tri_all([Tri.YES, Tri.UNKNOWN]) is Tri.UNKNOWN
        assert tri_all([]) is Tri.YES


class TestMatchConstraint:
    def test_equality_becomes_allowed_set(self):
        match = Match(
            match_function=STRING_EQUAL,
            value=string("alice"),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id=SUBJECT_ID,
                data_type=DataType.STRING,
            ),
        )
        constraint = match_constraint(match)
        assert constraint.allowed == frozenset({"alice"})

    def test_greater_than_is_an_upper_bound(self):
        # XACML applies f(literal, candidate): greater-than(5, x) means
        # 5 > x — an UPPER bound on the candidate, not a lower one.
        constraint = match_constraint(int_match(INT_GT, 5))
        assert constraint.upper == (5, False)
        assert constraint.lower is None

    def test_less_than_is_a_lower_bound(self):
        constraint = match_constraint(int_match(INT_LT, 5))
        assert constraint.lower == (5, False)
        assert constraint.upper is None

    def test_inclusive_variants(self):
        assert match_constraint(int_match(INT_GTE, 5)).upper == (5, True)
        assert match_constraint(int_match(INT_LTE, 5)).lower == (5, True)

    def test_unknown_function_returns_none(self):
        match = Match(
            match_function="urn:example:no-such-function",
            value=string("x"),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id=SUBJECT_ID,
                data_type=DataType.STRING,
            ),
        )
        assert match_constraint(match) is None

    def test_an_ill_typed_equality_is_undecidable_not_an_allowed_set(self):
        """``integer-equal("a", <string bag>)`` raises on every candidate
        (the engine answers Indeterminate): it pins no value, so it does
        not make the match disjoint from ``resource == "b"``."""
        resource = AttributeDesignator(Category.RESOURCE, RESOURCE_ID, DataType.STRING)
        ill_typed = Match(INT_EQUAL, string("a"), resource)
        assert match_constraint(ill_typed).allowed is None
        verdict, _ = normalize_target(target_of(ill_typed)).overlap_clause(
            normalize_target(subject_resource_action_target(resource_id="b"))
        )
        assert verdict is not Tri.NO
        condition = Condition(
            apply_(
                INT_EQUAL,
                apply_(
                    f"{functions.FUNCTION_PREFIX_1_0}integer-one-and-only",
                    designator(Category.RESOURCE, RESOURCE_ID, DataType.STRING),
                ),
                literal(string("a")),
            )
        )
        assert interpret_condition(condition) is None

    def test_bags_that_differ_only_in_issuer_are_two_keys(self):
        plain = match_equal(Category.RESOURCE, RESOURCE_ID, string("payroll"))
        issued = Match(
            STRING_EQUAL,
            string("res-1"),
            AttributeDesignator(
                Category.RESOURCE, RESOURCE_ID, DataType.STRING, issuer="hr"
            ),
        )
        assert match_constraint(plain).key != match_constraint(issued).key
        verdict, clause = normalize_target(target_of(plain)).overlap_clause(
            normalize_target(target_of(issued))
        )
        assert verdict is Tri.YES
        assert [(c.issuer, c.allowed) for c in clause.constraints] == [
            (None, frozenset({"payroll"})),
            ("hr", frozenset({"res-1"})),
        ]

    def test_bound_semantics_agree_with_the_real_function(self):
        # The static translation and the registered function must agree.
        constraint = match_constraint(int_match(INT_GT, 5))
        func = functions.lookup(INT_GT)
        for candidate in (3, 4, 5, 6, 7):
            runtime = func(integer(5), integer(candidate)).value
            static = constraint.admits(candidate)
            assert static == runtime, candidate


class TestAttributeConstraint:
    def test_conjoin_intersects_allowed_sets(self):
        a = string_constraint(allowed=frozenset({"a", "b"}))
        b = string_constraint(allowed=frozenset({"b", "c"}))
        assert a.conjoin(b).allowed == frozenset({"b"})

    def test_conjoin_tightens_bounds(self):
        a = int_constraint(lower=(1, True), upper=(10, True))
        b = int_constraint(lower=(3, False), upper=(8, True))
        merged = a.conjoin(b)
        assert merged.lower == (3, False)
        assert merged.upper == (8, True)

    def test_empty_allowed_intersection_is_empty(self):
        a = string_constraint(allowed=frozenset({"a"}))
        b = string_constraint(allowed=frozenset({"b"}))
        assert a.conjoin(b).is_empty() is Tri.YES

    def test_contradictory_bounds_are_empty(self):
        assert int_constraint(lower=(10, True), upper=(5, True)).is_empty() is Tri.YES
        # Same point, one side exclusive.
        assert int_constraint(lower=(5, False), upper=(5, True)).is_empty() is Tri.YES
        # Integers: open interval (5, 6) holds no integer.
        assert int_constraint(lower=(5, False), upper=(6, False)).is_empty() is Tri.YES

    def test_satisfiable_bounds_are_not_empty(self):
        constraint = int_constraint(lower=(1, True), upper=(10, True))
        assert constraint.is_empty() is Tri.NO
        sample = constraint.sample()
        assert sample is not None
        assert constraint.admits(sample.value) is True

    def test_subsumes_allowed_sets(self):
        wide = string_constraint(allowed=frozenset({"a", "b"}))
        narrow = string_constraint(allowed=frozenset({"a"}))
        assert wide.subsumes(narrow) is Tri.YES
        assert narrow.subsumes(wide) is Tri.NO

    def test_subsumes_bounds(self):
        wide = int_constraint(lower=(0, True))
        narrow = int_constraint(lower=(5, True))
        assert wide.subsumes(narrow) is Tri.YES
        # The narrow side constrains nothing the wide side admits... but
        # reversed, narrow rejects values wide admits.
        assert narrow.subsumes(wide) is Tri.NO

    def test_bounded_does_not_subsume_unbounded(self):
        bounded = int_constraint(upper=(10, True))
        free = int_constraint()
        assert bounded.subsumes(free) is Tri.NO
        assert free.subsumes(bounded) is Tri.YES


class TestClause:
    def test_subsumption_requires_other_to_constrain_our_keys(self):
        # A constraint demands presence; a clause constraining a key the
        # other leaves free admits FEWER requests, so subsumption is NO.
        ours = Clause(constraints=(string_constraint(allowed=frozenset({"a"})),))
        theirs = Clause()
        assert ours.subsumes(theirs) is Tri.NO
        assert theirs.subsumes(ours) is Tri.YES

    def test_opaque_clause_never_subsumes(self):
        opaque = Clause(opaque=True)
        assert opaque.subsumes(Clause()) is Tri.UNKNOWN

    def test_opaque_clause_may_be_subsumed(self):
        # Opacity shrinks the true set, so being covered still holds.
        opaque = Clause(
            constraints=(string_constraint(allowed=frozenset({"a"})),),
            opaque=True,
        )
        wide = Clause(constraints=(string_constraint(allowed=frozenset({"a", "b"})),))
        assert wide.subsumes(opaque) is Tri.YES

    def test_empty_constraint_makes_clause_empty_even_if_opaque(self):
        clause = Clause(
            constraints=(
                string_constraint(allowed=frozenset({"a"})).conjoin(
                    string_constraint(allowed=frozenset({"b"}))
                ),
            ),
            opaque=True,
        )
        assert clause.is_empty() is Tri.YES

    def test_sample_covers_every_constraint(self):
        clause = Clause(
            constraints=(
                string_constraint(allowed=frozenset({"alice"})),
                int_constraint(lower=(3, True), upper=(7, True)),
            )
        )
        values = clause.sample()
        assert values is not None
        assert len(values) == 2


class TestNormalizedTarget:
    def test_normalize_simple_target(self):
        target = subject_resource_action_target(
            subject_id="alice", resource_id="db", action_id="read"
        )
        nt = normalize_target(target)
        assert nt.exact
        assert len(nt.clauses) == 1
        assert len(nt.clauses[0].constraints) == 3

    def test_empty_target_is_unconstrained(self):
        nt = normalize_target(Target())
        assert nt.subsumes(UNCONSTRAINED) is Tri.YES

    def test_contradictory_target_is_unsatisfiable(self):
        target = target_of(
            int_match(INT_LT, 10),  # candidate > 10
            int_match(INT_GT, 5),  # candidate < 5
        )
        assert normalize_target(target).is_unsatisfiable() is Tri.YES

    def test_subsumption_between_targets(self):
        wide = normalize_target(subject_resource_action_target(resource_id="db"))
        narrow = normalize_target(
            subject_resource_action_target(resource_id="db", action_id="read")
        )
        assert wide.subsumes(narrow) is Tri.YES
        assert narrow.subsumes(wide) is Tri.NO

    def test_overlap_yields_a_satisfiable_witness_clause(self):
        a = normalize_target(subject_resource_action_target(resource_id="db"))
        b = normalize_target(subject_resource_action_target(action_id="read"))
        verdict, clause = a.overlap_clause(b)
        assert verdict is Tri.YES
        assert clause.sample() is not None

    def test_disjoint_targets_do_not_overlap(self):
        a = normalize_target(subject_resource_action_target(resource_id="db"))
        b = normalize_target(subject_resource_action_target(resource_id="fs"))
        verdict, clause = a.overlap_clause(b)
        assert verdict is Tri.NO
        assert clause is None

    def test_truncation_marks_inexact_and_blocks_subsumption(self):
        # A target whose DNF exceeds MAX_CLAUSES becomes an
        # under-approximation; claims needing the whole set go UNKNOWN.
        def any_of(attribute_id, values):
            return AnyOf(
                all_ofs=tuple(
                    AllOf(
                        matches=(
                            Match(
                                match_function=STRING_EQUAL,
                                value=string(v),
                                designator=AttributeDesignator(
                                    category=Category.SUBJECT,
                                    attribute_id=attribute_id,
                                    data_type=DataType.STRING,
                                ),
                            ),
                        )
                    )
                    for v in values
                )
            )

        values = [f"v{i}" for i in range(9)]
        big = Target(
            any_ofs=tuple(
                any_of(f"urn:example:attr{k}", values) for k in range(3)
            )
        )
        nt = normalize_target(big)  # 9^3 = 729 clauses > MAX_CLAUSES
        assert not nt.exact
        assert len(nt.clauses) <= MAX_CLAUSES
        assert UNCONSTRAINED.subsumes(nt) is Tri.UNKNOWN
        # Overlap on the represented subset stays decidable.
        verdict, _ = nt.overlap_clause(UNCONSTRAINED)
        assert verdict is Tri.YES


class TestConditionInterpretation:
    def test_attribute_equals_condition_is_interpreted(self):
        condition = attribute_equals(Category.SUBJECT, SUBJECT_ROLE, string("admin"))
        interpreted = interpret_condition(condition)
        assert interpreted is not None
        nt, may_error = interpreted
        assert may_error is False
        constraint = nt.clauses[0].constraints[0]
        assert constraint.allowed == frozenset({"admin"})

    def test_must_be_present_flags_may_error(self):
        condition = attribute_equals(
            Category.SUBJECT, SUBJECT_ROLE, string("admin"), must_be_present=True
        )
        _, may_error = interpret_condition(condition)
        assert may_error is True

    def test_and_of_equals_conjoins(self):
        role = attribute_equals(Category.SUBJECT, SUBJECT_ROLE, string("admin"))
        subject = attribute_equals(Category.SUBJECT, SUBJECT_ID, string("alice"))
        condition = Condition(
            apply_(
                f"{functions.FUNCTION_PREFIX_1_0}and",
                role.expression,
                subject.expression,
            )
        )
        nt, _ = interpret_condition(condition)
        assert len(nt.clauses[0].constraints) == 2

    def test_one_and_only_equality_is_interpreted_and_may_error(self):
        condition = Condition(
            apply_(
                STRING_EQUAL,
                apply_(
                    f"{functions.FUNCTION_PREFIX_1_0}string-one-and-only",
                    designator(Category.SUBJECT, SUBJECT_ROLE, DataType.STRING),
                ),
                literal(string("admin")),
            )
        )
        interpreted = interpret_condition(condition)
        assert interpreted is not None
        nt, may_error = interpreted
        assert may_error is True  # one-and-only raises on bag size != 1
        assert nt.clauses[0].constraints[0].allowed == frozenset({"admin"})

    def test_unrecognized_condition_returns_none(self):
        condition = Condition(
            apply_(
                f"{functions.FUNCTION_PREFIX_1_0}string-normalize-space",
                literal(string("x")),
            )
        )
        assert interpret_condition(condition) is None


class TestRuleView:
    def test_interpretable_condition_narrows_applicability(self):
        rule = permit_rule(
            "r",
            target=subject_resource_action_target(resource_id="db"),
            condition=attribute_equals(
                Category.SUBJECT, SUBJECT_ROLE, string("admin")
            ),
        )
        view = rule_view(rule)
        assert not view.opaque_condition
        assert view.cannot_error
        wide = normalize_target(subject_resource_action_target(resource_id="db"))
        assert wide.subsumes(view.applicability) is Tri.YES

    def test_opaque_condition_marks_clauses_and_may_error(self):
        rule = permit_rule(
            "r",
            condition=Condition(
                apply_(
                    f"{functions.FUNCTION_PREFIX_1_0}string-normalize-space",
                    literal(string("x")),
                )
            ),
        )
        view = rule_view(rule)
        assert view.opaque_condition
        assert view.may_error
        assert all(clause.opaque for clause in view.applicability.clauses)


class TestMatchMayError:
    def test_plain_equality_cannot_error(self):
        match = Match(
            match_function=STRING_EQUAL,
            value=string("alice"),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id=SUBJECT_ID,
                data_type=DataType.STRING,
            ),
        )
        assert match_may_error(match) is False

    def test_must_be_present_may_error(self):
        match = Match(
            match_function=STRING_EQUAL,
            value=string("alice"),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id=SUBJECT_ID,
                data_type=DataType.STRING,
                must_be_present=True,
            ),
        )
        assert match_may_error(match) is True

    def test_ill_typed_match_may_error(self):
        # integer-greater-than over a string-typed designator raises on
        # every candidate — the probe discovers it.
        match = Match(
            match_function=INT_GT,
            value=integer(5),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id=SUBJECT_ID,
                data_type=DataType.STRING,
            ),
        )
        assert match_may_error(match) is True
