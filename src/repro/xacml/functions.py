"""The XACML function registry.

Policies compute conditions by applying standard functions to attribute
values and bags.  This module implements the portion of the XACML 2.0
function catalogue the repo's policies, models and profiles need —
equality, ordering, arithmetic, logic, string handling, bag algebra, set
relations and regular-expression matching — behind a registry keyed by
the standard URN identifiers.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

from .attributes import AttributeValue, Bag, DataType, boolean

FUNCTION_PREFIX_1_0 = "urn:oasis:names:tc:xacml:1.0:function:"
FUNCTION_PREFIX_2_0 = "urn:oasis:names:tc:xacml:2.0:function:"


class FunctionError(Exception):
    """Raised when a function application is ill-typed or ill-arity."""


Function = Callable[..., Any]

_REGISTRY: dict[str, Function] = {}


def register(identifier: str) -> Callable[[Function], Function]:
    def decorator(func: Function) -> Function:
        if identifier in _REGISTRY:
            raise ValueError(f"duplicate function id {identifier}")
        _REGISTRY[identifier] = func
        return func

    return decorator


def lookup(identifier: str) -> Function:
    try:
        return _REGISTRY[identifier]
    except KeyError:
        raise FunctionError(f"unknown function {identifier!r}") from None


def find(identifier: str) -> Optional[Function]:
    """The registered function, or None when the id is (still) unknown.

    What policy nodes bind at construction: :func:`register` refuses to
    overwrite, so a function found once never changes, and a node whose
    id was unknown falls back to :func:`lookup` at evaluation.
    """
    return _REGISTRY.get(identifier)


def known_functions() -> frozenset[str]:
    return frozenset(_REGISTRY)


def _require_value(arg: Any, data_type: DataType, fid: str) -> AttributeValue:
    if not isinstance(arg, AttributeValue):
        raise FunctionError(f"{fid}: expected a single value, got {type(arg).__name__}")
    if arg.data_type is not data_type:
        raise FunctionError(
            f"{fid}: expected {data_type.name}, got {arg.data_type.name}"
        )
    return arg


def _require_bag(arg: Any, fid: str) -> Bag:
    if not isinstance(arg, Bag):
        raise FunctionError(f"{fid}: expected a bag, got {type(arg).__name__}")
    return arg


def _arity(args: Sequence[Any], n: int, fid: str) -> None:
    if len(args) != n:
        raise FunctionError(f"{fid}: expected {n} arguments, got {len(args)}")


# -- equality ----------------------------------------------------------------

_EQUALITY_TYPES = {
    "string-equal": DataType.STRING,
    "boolean-equal": DataType.BOOLEAN,
    "integer-equal": DataType.INTEGER,
    "double-equal": DataType.DOUBLE,
    "time-equal": DataType.TIME,
    "dateTime-equal": DataType.DATE_TIME,
    "anyURI-equal": DataType.ANY_URI,
    "rfc822Name-equal": DataType.RFC822_NAME,
    "x500Name-equal": DataType.X500_NAME,
}


def _make_equal(name: str, data_type: DataType) -> None:
    fid = FUNCTION_PREFIX_1_0 + name

    @register(fid)
    def equal(*args: Any, _dt: DataType = data_type, _fid: str = fid) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_value(args[0], _dt, _fid)
        b = _require_value(args[1], _dt, _fid)
        return boolean(a.value == b.value)


for _name, _dt in _EQUALITY_TYPES.items():
    _make_equal(_name, _dt)

#: The exact ``type-equal`` function ids, each with the one data type
#: both its arguments must have.  Target summaries test membership here
#: — a suffix test would also catch the ordered
#: ``-greater-than-or-equal`` / ``-less-than-or-equal`` comparisons.
EQUALITY_FUNCTIONS: Mapping[str, DataType] = MappingProxyType(
    {FUNCTION_PREFIX_1_0 + _name: _dt for _name, _dt in _EQUALITY_TYPES.items()}
)


# -- ordering ------------------------------------------------------------------

_ORDERED = {
    "integer": DataType.INTEGER,
    "double": DataType.DOUBLE,
    "string": DataType.STRING,
    "time": DataType.TIME,
    "dateTime": DataType.DATE_TIME,
}

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "greater-than": lambda a, b: a > b,
    "greater-than-or-equal": lambda a, b: a >= b,
    "less-than": lambda a, b: a < b,
    "less-than-or-equal": lambda a, b: a <= b,
}


def _make_comparison(type_name: str, data_type: DataType, op_name: str) -> None:
    fid = f"{FUNCTION_PREFIX_1_0}{type_name}-{op_name}"
    op = _COMPARATORS[op_name]

    @register(fid)
    def compare(
        *args: Any,
        _dt: DataType = data_type,
        _fid: str = fid,
        _op: Callable[[Any, Any], Any] = op,
    ) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_value(args[0], _dt, _fid)
        b = _require_value(args[1], _dt, _fid)
        return boolean(_op(a.value, b.value))


for _tname, _dt in _ORDERED.items():
    for _opname in _COMPARATORS:
        _make_comparison(_tname, _dt, _opname)


# -- arithmetic ----------------------------------------------------------------


def _make_arithmetic(type_name: str, data_type: DataType) -> None:
    ops: dict[str, Callable[[Any, Any], Any]] = {
        "add": lambda a, b: a + b,
        "subtract": lambda a, b: a - b,
        "multiply": lambda a, b: a * b,
    }
    for op_name, op in ops.items():
        fid = f"{FUNCTION_PREFIX_1_0}{type_name}-{op_name}"

        @register(fid)
        def arith(
            *args: Any,
            _dt: DataType = data_type,
            _fid: str = fid,
            _op: Callable[[Any, Any], Any] = op,
        ) -> AttributeValue:
            _arity(args, 2, _fid)
            a = _require_value(args[0], _dt, _fid)
            b = _require_value(args[1], _dt, _fid)
            return AttributeValue(_dt, _op(a.value, b.value))

    div_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-divide"

    @register(div_fid)
    def divide(*args: Any, _dt: DataType = data_type, _fid: str = div_fid) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_value(args[0], _dt, _fid)
        b = _require_value(args[1], _dt, _fid)
        if b.value == 0:
            raise FunctionError(f"{_fid}: division by zero")
        result = a.value / b.value
        if _dt is DataType.INTEGER:
            result = int(a.value // b.value)
        return AttributeValue(_dt, result)


_make_arithmetic("integer", DataType.INTEGER)
_make_arithmetic("double", DataType.DOUBLE)


@register(FUNCTION_PREFIX_1_0 + "integer-abs")
def integer_abs(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "integer-abs"
    _arity(args, 1, fid)
    a = _require_value(args[0], DataType.INTEGER, fid)
    return AttributeValue(DataType.INTEGER, abs(a.value))


@register(FUNCTION_PREFIX_1_0 + "integer-mod")
def integer_mod(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "integer-mod"
    _arity(args, 2, fid)
    a = _require_value(args[0], DataType.INTEGER, fid)
    b = _require_value(args[1], DataType.INTEGER, fid)
    if b.value == 0:
        raise FunctionError(f"{fid}: modulo by zero")
    return AttributeValue(DataType.INTEGER, a.value % b.value)


# -- logic ---------------------------------------------------------------------


@register(FUNCTION_PREFIX_1_0 + "and")
def logical_and(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "and"
    for arg in args:
        value = _require_value(arg, DataType.BOOLEAN, fid)
        if not value.value:
            return boolean(False)
    return boolean(True)


@register(FUNCTION_PREFIX_1_0 + "or")
def logical_or(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "or"
    for arg in args:
        value = _require_value(arg, DataType.BOOLEAN, fid)
        if value.value:
            return boolean(True)
    return boolean(False)


@register(FUNCTION_PREFIX_1_0 + "not")
def logical_not(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "not"
    _arity(args, 1, fid)
    value = _require_value(args[0], DataType.BOOLEAN, fid)
    return boolean(not value.value)


@register(FUNCTION_PREFIX_1_0 + "n-of")
def n_of(*args: Any) -> AttributeValue:
    """True if at least n of the remaining boolean arguments are true."""
    fid = FUNCTION_PREFIX_1_0 + "n-of"
    if not args:
        raise FunctionError(f"{fid}: requires the threshold argument")
    threshold = _require_value(args[0], DataType.INTEGER, fid).value
    if threshold > len(args) - 1:
        raise FunctionError(
            f"{fid}: threshold {threshold} exceeds argument count {len(args) - 1}"
        )
    count = 0
    for arg in args[1:]:
        if _require_value(arg, DataType.BOOLEAN, fid).value:
            count += 1
            if count >= threshold:
                return boolean(True)
    return boolean(count >= threshold)


# -- strings ---------------------------------------------------------------------


@register(FUNCTION_PREFIX_2_0 + "string-concatenate")
def string_concatenate(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_2_0 + "string-concatenate"
    if len(args) < 2:
        raise FunctionError(f"{fid}: needs at least two arguments")
    parts = [_require_value(a, DataType.STRING, fid).value for a in args]
    return AttributeValue(DataType.STRING, "".join(parts))


@register(FUNCTION_PREFIX_1_0 + "string-normalize-space")
def string_normalize_space(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "string-normalize-space"
    _arity(args, 1, fid)
    value = _require_value(args[0], DataType.STRING, fid)
    return AttributeValue(DataType.STRING, value.value.strip())


@register(FUNCTION_PREFIX_1_0 + "string-normalize-to-lower-case")
def string_normalize_lower(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "string-normalize-to-lower-case"
    _arity(args, 1, fid)
    value = _require_value(args[0], DataType.STRING, fid)
    return AttributeValue(DataType.STRING, value.value.lower())


def _make_string_predicate(name: str, predicate: Callable[[str, str], bool]) -> None:
    fid = FUNCTION_PREFIX_2_0 + name

    @register(fid)
    def pred(
        *args: Any, _fid: str = fid, _p: Callable[[str, str], bool] = predicate
    ) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_value(args[0], DataType.STRING, _fid)
        b = _require_value(args[1], DataType.STRING, _fid)
        return boolean(_p(a.value, b.value))


# Argument order follows XACML 3.0 string-starts-with(needle, haystack).
_make_string_predicate("string-starts-with", lambda n, h: h.startswith(n))
_make_string_predicate("string-ends-with", lambda n, h: h.endswith(n))
_make_string_predicate("string-contains", lambda n, h: n in h)


@register(FUNCTION_PREFIX_1_0 + "string-regexp-match")
def string_regexp_match(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "string-regexp-match"
    _arity(args, 2, fid)
    pattern = _require_value(args[0], DataType.STRING, fid)
    subject = _require_value(args[1], DataType.STRING, fid)
    try:
        compiled = re.compile(pattern.value)
    except re.error as exc:
        raise FunctionError(f"{fid}: bad pattern {pattern.value!r}: {exc}") from exc
    return boolean(compiled.search(subject.value) is not None)


@register(FUNCTION_PREFIX_1_0 + "anyURI-regexp-match")
def any_uri_regexp_match(*args: Any) -> AttributeValue:
    fid = FUNCTION_PREFIX_1_0 + "anyURI-regexp-match"
    _arity(args, 2, fid)
    pattern = _require_value(args[0], DataType.STRING, fid)
    subject = _require_value(args[1], DataType.ANY_URI, fid)
    return boolean(re.search(pattern.value, subject.value) is not None)


# -- bag functions -----------------------------------------------------------------

_BAG_TYPES = {
    "string": DataType.STRING,
    "boolean": DataType.BOOLEAN,
    "integer": DataType.INTEGER,
    "double": DataType.DOUBLE,
    "time": DataType.TIME,
    "dateTime": DataType.DATE_TIME,
    "anyURI": DataType.ANY_URI,
    "x500Name": DataType.X500_NAME,
    "rfc822Name": DataType.RFC822_NAME,
}


def _make_bag_functions(type_name: str, data_type: DataType) -> None:
    one_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-one-and-only"

    @register(one_fid)
    def one_and_only(*args: Any, _dt: DataType = data_type, _fid: str = one_fid) -> AttributeValue:
        _arity(args, 1, _fid)
        bag = _require_bag(args[0], _fid)
        if len(bag) != 1:
            raise FunctionError(
                f"{_fid}: bag has {len(bag)} elements, exactly one required"
            )
        value = bag.values[0]
        if value.data_type is not _dt:
            raise FunctionError(f"{_fid}: bag holds {value.data_type.name}")
        return value

    size_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-bag-size"

    @register(size_fid)
    def bag_size(*args: Any, _fid: str = size_fid) -> AttributeValue:
        _arity(args, 1, _fid)
        bag = _require_bag(args[0], _fid)
        return AttributeValue(DataType.INTEGER, len(bag))

    is_in_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-is-in"

    @register(is_in_fid)
    def is_in(*args: Any, _dt: DataType = data_type, _fid: str = is_in_fid) -> AttributeValue:
        _arity(args, 2, _fid)
        wanted = _require_value(args[0], _dt, _fid).value
        for held in _require_bag(args[1], _fid).values:
            if held.value == wanted:
                return boolean(True)
        return boolean(False)

    bag_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-bag"

    @register(bag_fid)
    def make_bag(*args: Any, _dt: DataType = data_type, _fid: str = bag_fid) -> Bag:
        values = [_require_value(a, _dt, _fid) for a in args]
        return Bag(values)

    # Set relations over bags of this type.
    inter_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-intersection"

    @register(inter_fid)
    def intersection(*args: Any, _fid: str = inter_fid) -> Bag:
        _arity(args, 2, _fid)
        a = _require_bag(args[0], _fid)
        b = _require_bag(args[1], _fid)
        b_vals = {v.value for v in b}
        seen: set = set()
        out = []
        for v in a:
            if v.value in b_vals and v.value not in seen:
                seen.add(v.value)
                out.append(v)
        return Bag(out)

    union_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-union"

    @register(union_fid)
    def union(*args: Any, _fid: str = union_fid) -> Bag:
        _arity(args, 2, _fid)
        a = _require_bag(args[0], _fid)
        b = _require_bag(args[1], _fid)
        seen: set = set()
        out = []
        for v in list(a) + list(b):
            if v.value not in seen:
                seen.add(v.value)
                out.append(v)
        return Bag(out)

    alo_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-at-least-one-member-of"

    @register(alo_fid)
    def at_least_one_member_of(*args: Any, _fid: str = alo_fid) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_bag(args[0], _fid)
        b = _require_bag(args[1], _fid)
        b_vals = {v.value for v in b}
        return boolean(any(v.value in b_vals for v in a))

    subset_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-subset"

    @register(subset_fid)
    def subset(*args: Any, _fid: str = subset_fid) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_bag(args[0], _fid)
        b = _require_bag(args[1], _fid)
        b_vals = {v.value for v in b}
        return boolean(all(v.value in b_vals for v in a))

    seteq_fid = f"{FUNCTION_PREFIX_1_0}{type_name}-set-equals"

    @register(seteq_fid)
    def set_equals(*args: Any, _fid: str = seteq_fid) -> AttributeValue:
        _arity(args, 2, _fid)
        a = _require_bag(args[0], _fid)
        b = _require_bag(args[1], _fid)
        return boolean({v.value for v in a} == {v.value for v in b})


for _tname, _dt in _BAG_TYPES.items():
    _make_bag_functions(_tname, _dt)


# -- time-in-range --------------------------------------------------------------


@register(FUNCTION_PREFIX_2_0 + "time-in-range")
def time_in_range(*args: Any) -> AttributeValue:
    """True if arg0 falls within [arg1, arg2], handling midnight wrap."""
    fid = FUNCTION_PREFIX_2_0 + "time-in-range"
    _arity(args, 3, fid)
    t = _require_value(args[0], DataType.TIME, fid).value
    lo = _require_value(args[1], DataType.TIME, fid).value
    hi = _require_value(args[2], DataType.TIME, fid).value
    if lo <= hi:
        return boolean(lo <= t <= hi)
    return boolean(t >= lo or t <= hi)
