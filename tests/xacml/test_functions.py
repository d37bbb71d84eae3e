"""Tests for the XACML standard function catalogue."""

import pytest

from repro.xacml import AttributeValue, Bag, DataType, boolean, double, integer, string
from repro.xacml.functions import (
    FUNCTION_PREFIX_1_0,
    FUNCTION_PREFIX_2_0,
    FunctionError,
    known_functions,
    lookup,
)


def call(name, *args):
    prefix = FUNCTION_PREFIX_2_0 if name.startswith(("string-concat", "string-starts", "string-ends", "string-contains", "time-in-range")) else FUNCTION_PREFIX_1_0
    return lookup(prefix + name)(*args)


class TestEquality:
    def test_string_equal(self):
        assert call("string-equal", string("a"), string("a")).value is True
        assert call("string-equal", string("a"), string("b")).value is False

    def test_integer_equal(self):
        assert call("integer-equal", integer(3), integer(3)).value is True

    def test_type_error_raises(self):
        with pytest.raises(FunctionError):
            call("string-equal", string("a"), integer(1))

    def test_arity_enforced(self):
        with pytest.raises(FunctionError):
            call("string-equal", string("a"))


class TestComparisons:
    @pytest.mark.parametrize(
        "func,a,b,expected",
        [
            ("integer-greater-than", 3, 2, True),
            ("integer-greater-than", 2, 3, False),
            ("integer-less-than-or-equal", 2, 2, True),
            ("integer-less-than", 5, 2, False),
        ],
    )
    def test_integer_comparisons(self, func, a, b, expected):
        assert call(func, integer(a), integer(b)).value is expected

    def test_string_ordering(self):
        assert call("string-less-than", string("abc"), string("abd")).value is True

    def test_double_comparison(self):
        assert call("double-greater-than-or-equal", double(2.5), double(2.5)).value


class TestArithmetic:
    def test_add_subtract_multiply(self):
        assert call("integer-add", integer(2), integer(3)).value == 5
        assert call("integer-subtract", integer(2), integer(3)).value == -1
        assert call("double-multiply", double(2.0), double(4.0)).value == 8.0

    def test_integer_divide_floors(self):
        assert call("integer-divide", integer(7), integer(2)).value == 3

    def test_divide_by_zero(self):
        with pytest.raises(FunctionError, match="zero"):
            call("integer-divide", integer(1), integer(0))

    def test_abs_and_mod(self):
        assert call("integer-abs", integer(-5)).value == 5
        assert call("integer-mod", integer(7), integer(3)).value == 1


class TestLogic:
    def test_and_or_not(self):
        assert call("and", boolean(True), boolean(True)).value is True
        assert call("and", boolean(True), boolean(False)).value is False
        assert call("or", boolean(False), boolean(True)).value is True
        assert call("not", boolean(False)).value is True

    def test_empty_and_is_true(self):
        assert call("and").value is True

    def test_empty_or_is_false(self):
        assert call("or").value is False

    def test_n_of(self):
        assert call("n-of", integer(2), boolean(True), boolean(True), boolean(False)).value
        assert not call("n-of", integer(3), boolean(True), boolean(True), boolean(False)).value

    def test_n_of_threshold_too_large(self):
        with pytest.raises(FunctionError):
            call("n-of", integer(2), boolean(True))


class TestStrings:
    def test_concatenate(self):
        assert call("string-concatenate", string("a"), string("b"), string("c")).value == "abc"

    def test_normalize(self):
        assert call("string-normalize-space", string("  x  ")).value == "x"
        assert call("string-normalize-to-lower-case", string("ABC")).value == "abc"

    def test_starts_ends_contains(self):
        # XACML 3.0 argument order: (needle, haystack)
        assert call("string-starts-with", string("ab"), string("abc")).value
        assert call("string-ends-with", string("bc"), string("abc")).value
        assert call("string-contains", string("b"), string("abc")).value
        assert not call("string-contains", string("z"), string("abc")).value

    def test_regexp_match(self):
        assert call("string-regexp-match", string("^a+$"), string("aaa")).value
        assert not call("string-regexp-match", string("^a+$"), string("bbb")).value

    def test_bad_regexp(self):
        with pytest.raises(FunctionError):
            call("string-regexp-match", string("("), string("x"))


class TestBags:
    def test_one_and_only(self):
        assert call("string-one-and-only", Bag([string("x")])).value == "x"

    def test_one_and_only_rejects_multiple(self):
        with pytest.raises(FunctionError, match="exactly one"):
            call("string-one-and-only", Bag([string("x"), string("y")]))

    def test_one_and_only_rejects_empty(self):
        from repro.xacml import Bag

        with pytest.raises(FunctionError):
            call("string-one-and-only", Bag())

    def test_bag_size(self):
        assert call("string-bag-size", Bag([string("a"), string("b")])).value == 2

    def test_is_in(self):
        bag = Bag([string("a"), string("b")])
        assert call("string-is-in", string("a"), bag).value is True
        assert call("string-is-in", string("z"), bag).value is False

    def test_bag_constructor(self):
        bag = call("integer-bag", integer(1), integer(2))
        assert len(bag) == 2

    def test_union_deduplicates(self):
        result = call(
            "string-union", Bag([string("a"), string("b")]), Bag([string("b")])
        )
        assert len(result) == 2

    def test_intersection(self):
        result = call(
            "string-intersection",
            Bag([string("a"), string("b")]),
            Bag([string("b"), string("c")]),
        )
        assert [v.value for v in result] == ["b"]

    def test_at_least_one_member_of(self):
        assert call(
            "string-at-least-one-member-of",
            Bag([string("a")]),
            Bag([string("a"), string("b")]),
        ).value

    def test_subset(self):
        assert call(
            "string-subset", Bag([string("a")]), Bag([string("a"), string("b")])
        ).value
        assert not call(
            "string-subset", Bag([string("z")]), Bag([string("a")])
        ).value

    def test_empty_bag_is_subset_of_anything(self):
        from repro.xacml import Bag

        assert call("string-subset", Bag(), Bag([string("a")])).value

    def test_set_equals(self):
        assert call(
            "string-set-equals",
            Bag([string("a"), string("b")]),
            Bag([string("b"), string("a")]),
        ).value


def time_of_day(seconds):
    return AttributeValue(DataType.TIME, float(seconds))


class TestTimeInRange:
    def test_normal_range(self):
        f = lookup(FUNCTION_PREFIX_2_0 + "time-in-range")
        assert f(time_of_day(12.0), time_of_day(9.0), time_of_day(17.0)).value

    def test_midnight_wrapping_range(self):
        f = lookup(FUNCTION_PREFIX_2_0 + "time-in-range")
        # 22:00 - 06:00 window
        assert f(time_of_day(23 * 3600), time_of_day(22 * 3600), time_of_day(6 * 3600)).value
        assert f(time_of_day(3 * 3600), time_of_day(22 * 3600), time_of_day(6 * 3600)).value
        assert not f(time_of_day(12 * 3600), time_of_day(22 * 3600), time_of_day(6 * 3600)).value


class TestRegistry:
    def test_unknown_function(self):
        with pytest.raises(FunctionError):
            lookup("urn:nonsense")

    def test_catalogue_is_substantial(self):
        # equality (9) + comparisons (20) + arithmetic + logic + strings +
        # bag functions (9 types x 8) — the catalogue should be large.
        assert len(known_functions()) > 100
