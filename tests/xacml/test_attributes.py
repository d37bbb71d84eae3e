"""Tests for the XACML attribute model."""

import pytest

from repro.xacml import (
    Attribute,
    AttributeValue,
    Bag,
    Category,
    DataType,
    bag_of,
    boolean,
    integer,
    string,
)


class TestAttributeValue:
    def test_string_constructor(self):
        value = string("hello")
        assert value.data_type is DataType.STRING
        assert value.value == "hello"

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            AttributeValue(DataType.INTEGER, "not an int")

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(TypeError):
            AttributeValue(DataType.INTEGER, True)

    def test_int_promoted_to_double(self):
        value = AttributeValue(DataType.DOUBLE, 3)
        assert isinstance(value.value, float)

    def test_lexical_boolean(self):
        assert boolean(True).lexical() == "true"
        assert boolean(False).lexical() == "false"

    @pytest.mark.parametrize(
        "data_type,text,expected",
        [
            (DataType.BOOLEAN, "true", True),
            (DataType.BOOLEAN, "0", False),
            (DataType.INTEGER, " 42 ", 42),
            (DataType.DOUBLE, "2.5", 2.5),
            (DataType.STRING, "x y", "x y"),
        ],
    )
    def test_parse(self, data_type, text, expected):
        assert AttributeValue.parse(data_type, text).value == expected

    def test_parse_bad_boolean(self):
        with pytest.raises(ValueError):
            AttributeValue.parse(DataType.BOOLEAN, "maybe")

    def test_lexical_parse_roundtrip(self):
        for value in (string("a"), integer(7), boolean(True)):
            assert AttributeValue.parse(value.data_type, value.lexical()) == value


class TestBag:
    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            Bag([string("a"), integer(1)])

    def test_membership(self):
        bag = bag_of(string("a"), string("b"))
        assert string("a") in bag
        assert string("z") not in bag

    def test_equality_is_order_insensitive(self):
        assert bag_of(string("a"), string("b")) == bag_of(string("b"), string("a"))

    def test_empty(self):
        assert Bag().is_empty()
        assert len(Bag()) == 0


class TestAttribute:
    def test_of_requires_values(self):
        # However it is built: the wire has no form for an empty attribute.
        for build in (lambda: Attribute.of("attr-id"), lambda: Attribute("attr-id", ())):
            with pytest.raises(ValueError, match="has no values"):
                build()

    def test_data_type_from_first_value(self):
        attr = Attribute.of("attr-id", integer(1), integer(2))
        assert attr.data_type is DataType.INTEGER


class TestCategory:
    def test_short_name_roundtrip(self):
        for category in Category:
            assert Category.from_short_name(category.short_name) is category

    def test_unknown_short_name(self):
        with pytest.raises(ValueError):
            Category.from_short_name("nonsense")

    def test_data_type_uri_roundtrip(self):
        for data_type in DataType:
            assert DataType.from_uri(data_type.value) is data_type

    def test_unknown_data_type_uri(self):
        # components/pip.py turns this ValueError into a bad-query fault.
        with pytest.raises(ValueError, match="unsupported data type URI"):
            DataType.from_uri("urn:bogus")
