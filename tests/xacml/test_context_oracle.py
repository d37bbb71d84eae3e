"""Differential oracle and shape pins for the context model.

``OracleRequestContext`` below is the body ``RequestContext`` had before
it became one flat list under ``__slots__``: a dict of five per-category
lists, a key that sorts per category and again at the end.  Hypothesis
drives both through the same ``add`` sequences (all five categories,
repeated ids, multi-valued attributes, mixed data types, issuers,
environment attributes) and through the ``attributes=`` constructor
form; every read, ``repr`` and the serialised bytes must agree.

The identity is pinned against its definition rather than the oracle's
key, which forgot data type and issuer (the oracle's key is still what
the new one must agree with wherever those two do not vary).  The
response memo and the object shape are pinned at the end.
"""

import sys
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.xacml import (
    ACTION_ID,
    Attribute,
    AttributeValue,
    Bag,
    Category,
    DataType,
    Decision,
    ParseError,
    RESOURCE_ID,
    RequestContext,
    ResponseContext,
    SUBJECT_ID,
    cache_key_touches,
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
    string,
)
from repro.xacml import parser as parser_module
from repro.xacml.parser import RESPONSE_MEMO_SIZE

# -- the parent's request ----------------------------------------------------------


class OracleRequestContext:
    def __init__(
        self, attributes: Optional[dict[Category, list[Attribute]]] = None
    ) -> None:
        self._attributes: dict[Category, list[Attribute]] = {
            category: [] for category in Category
        }
        if attributes:
            for category, attrs in attributes.items():
                self._attributes[category] = list(attrs)

    def add(self, category: Category, attribute: Attribute) -> None:
        self._attributes[category].append(attribute)

    def attributes(self, category: Category) -> list[Attribute]:
        return list(self._attributes[category])

    def bag(self, category, attribute_id, data_type, issuer=None) -> Bag:
        collected: list[AttributeValue] = []
        for attribute in self._attributes[category]:
            if attribute.attribute_id != attribute_id:
                continue
            if issuer is not None and attribute.issuer != issuer:
                continue
            collected.extend(
                v for v in attribute.values if v.data_type is data_type
            )
        return Bag(collected)

    def values(self, category, attribute_id) -> list[AttributeValue]:
        return [
            value
            for attribute in self._attributes[category]
            if attribute.attribute_id == attribute_id
            for value in attribute.values
        ]

    def first_value(self, category, attribute_id) -> Optional[AttributeValue]:
        for attribute in self._attributes[category]:
            if attribute.attribute_id == attribute_id and attribute.values:
                return attribute.values[0]
        return None

    @property
    def subject_id(self) -> Optional[str]:
        value = self.first_value(Category.SUBJECT, SUBJECT_ID)
        return None if value is None else str(value.value)

    @property
    def resource_id(self) -> Optional[str]:
        value = self.first_value(Category.RESOURCE, RESOURCE_ID)
        return None if value is None else str(value.value)

    @property
    def action_id(self) -> Optional[str]:
        value = self.first_value(Category.ACTION, ACTION_ID)
        return None if value is None else str(value.value)

    def cache_key(self) -> tuple:
        parts = []
        for category in Category:
            for attribute in sorted(
                self._attributes[category], key=lambda a: a.attribute_id
            ):
                if category is Category.ENVIRONMENT:
                    continue
                for value in attribute.values:
                    parts.append(
                        (category.value, attribute.attribute_id, value.lexical())
                    )
        return tuple(sorted(parts))

    def __repr__(self) -> str:
        return (
            f"RequestContext(subject={self.subject_id!r}, "
            f"resource={self.resource_id!r}, action={self.action_id!r})"
        )


# -- strategies --------------------------------------------------------------------

#: Markup, quotes, whitespace, non-ASCII and a non-BMP character (a
#: carriage return does not survive as element text, see test_codec).
HOSTILE = "<>&\"' \n\tax-:/=é☃𝄞"
hostile_text = st.text(alphabet=HOSTILE, max_size=6)
#: Few ids, some of them the well-known ones, so that sequences repeat
#: an id within and across categories.
ATTRIBUTE_IDS = [SUBJECT_ID, RESOURCE_ID, ACTION_ID, "urn:test:role", "a", ""]
ISSUERS = [None, "", "hr", "=hr", "mallory"]
STRING_TYPES = [DataType.STRING, DataType.ANY_URI, DataType.RFC822_NAME]

values = st.one_of(
    st.builds(
        AttributeValue,
        st.sampled_from(STRING_TYPES),
        st.sampled_from(["alice", "1", "true", ""]) | hostile_text,
    ),
    st.builds(AttributeValue, st.just(DataType.BOOLEAN), st.booleans()),
    st.builds(AttributeValue, st.just(DataType.INTEGER), st.integers(-2, 2)),
    st.builds(
        AttributeValue,
        st.sampled_from([DataType.DOUBLE, DataType.TIME]),
        st.floats(allow_nan=False),
    ),
)


#: An attribute has at least one value (``Attribute`` refuses none).
value_tuples = st.lists(values, min_size=1, max_size=3).map(tuple)


def attributes(ids=st.sampled_from(ATTRIBUTE_IDS)):
    return st.builds(
        Attribute,
        attribute_id=ids,
        values=value_tuples,
        issuer=st.sampled_from(ISSUERS),
    )


def add_sequences(ids=st.sampled_from(ATTRIBUTE_IDS)):
    return st.lists(
        st.tuples(st.sampled_from(list(Category)), attributes(ids)),
        max_size=8,
    )


def build(cls, adds):
    request = cls()
    for category, attribute in adds:
        request.add(category, attribute)
    return request


def identity(adds) -> Counter:
    """What the key is defined to cover, as a multiset."""
    return Counter(
        (category, attribute.attribute_id, value.data_type, attribute.issuer,
         value.lexical())
        for category, attribute in adds
        if category is not Category.ENVIRONMENT
        for value in attribute.values
    )


def assert_reads_alike(request, oracle):
    for category in Category:
        assert request.attributes(category) == oracle.attributes(category)
        for attribute_id in ATTRIBUTE_IDS:
            assert request.values(category, attribute_id) == oracle.values(
                category, attribute_id
            )
            assert request.first_value(
                category, attribute_id
            ) == oracle.first_value(category, attribute_id)
            for data_type in DataType:
                for issuer in ISSUERS:
                    # Bag equality is by sorted lexicals; the engine
                    # reads them in order, so compare the tuples.
                    assert (
                        request.bag(category, attribute_id, data_type, issuer).values
                        == oracle.bag(category, attribute_id, data_type, issuer).values
                    )
    assert request.subject_id == oracle.subject_id
    assert request.resource_id == oracle.resource_id
    assert request.action_id == oracle.action_id
    assert repr(request) == repr(oracle)
    # The serializer reads a request through ``attributes()`` alone.
    assert serialize_request(request) == serialize_request(oracle)


class TestAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(add_sequences())
    def test_add_sequences_read_alike(self, adds):
        assert_reads_alike(
            build(RequestContext, adds), build(OracleRequestContext, adds)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(list(Category)), st.lists(attributes(), max_size=3)
        ),
        add_sequences(),
    )
    def test_constructor_mapping_reads_alike(self, mapping, adds):
        request = RequestContext(mapping)
        oracle = OracleRequestContext(mapping)
        for category, attribute in adds:
            request.add(category, attribute)
            oracle.add(category, attribute)
        assert_reads_alike(request, oracle)

    def test_constructor_copies_its_lists(self):
        held = [Attribute.of("a", string("v"))]
        request = RequestContext({Category.SUBJECT: held})
        held.append(Attribute.of("b", string("w")))
        assert len(request.attributes(Category.SUBJECT)) == 1

    def test_attributes_returns_a_fresh_list(self):
        request = RequestContext.simple("alice", "doc", "read")
        request.attributes(Category.SUBJECT).clear()
        assert request.subject_id == "alice"

    def test_simple_reads_alike(self):
        arguments = dict(
            subject_attributes={"urn:test:role": [string("a"), string("b")]},
            resource_attributes={"urn:test:owner": [string("alice")]},
            environment={"urn:test:tod": [string("noon")]},
        )
        request = RequestContext.simple("alice", "doc", "read", **arguments)
        oracle = OracleRequestContext()
        oracle.add(Category.SUBJECT, Attribute.of(SUBJECT_ID, string("alice")))
        oracle.add(Category.RESOURCE, Attribute.of(RESOURCE_ID, string("doc")))
        oracle.add(Category.ACTION, Attribute.of(ACTION_ID, string("read")))
        oracle.add(
            Category.SUBJECT,
            Attribute("urn:test:role", (string("a"), string("b"))),
        )
        oracle.add(
            Category.RESOURCE, Attribute("urn:test:owner", (string("alice"),))
        )
        oracle.add(
            Category.ENVIRONMENT, Attribute("urn:test:tod", (string("noon"),))
        )
        assert_reads_alike(request, oracle)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(Category)),
                st.builds(
                    Attribute,
                    attribute_id=st.sampled_from(ATTRIBUTE_IDS),
                    values=st.lists(
                        st.sampled_from(["alice", "bob", ""]).map(string),
                        min_size=1,
                        max_size=3,
                    ).map(tuple),
                ),
            ),
            max_size=6,
        ),
        st.data(),
    )
    def test_key_equality_agrees_where_type_and_issuer_do_not_vary(
        self, adds, data
    ):
        """Untyped-string, issuer-less requests — every request the
        benchmarks and experiments make — are told apart exactly as the
        parent told them apart, so no cache or dedup table splits or
        merges differently."""
        other = data.draw(st.permutations(adds) | st.just(adds[1:]))
        assert (
            build(RequestContext, adds).cache_key()
            == build(RequestContext, other).cache_key()
        ) == (
            build(OracleRequestContext, adds).cache_key()
            == build(OracleRequestContext, other).cache_key()
        )
        # Field by field: the parent's triple leads each part.
        assert [
            part[:3] for part in build(RequestContext, adds).cache_key()
        ] == list(build(OracleRequestContext, adds).cache_key())


class TestIdentity:
    @settings(max_examples=300, deadline=None)
    @given(add_sequences(), add_sequences())
    def test_keys_are_equal_iff_identities_are(self, one, other):
        assert (
            build(RequestContext, one).cache_key()
            == build(RequestContext, other).cache_key()
        ) == (identity(one) == identity(other))

    @settings(max_examples=200, deadline=None)
    @given(add_sequences(), st.data())
    def test_variants_of_one_request(self, adds, data):
        """The draws above rarely collide; this one perturbs a single
        field of a single attribute, or only reorders."""
        index = data.draw(st.integers(0, max(len(adds) - 1, 0)))
        changed = list(adds)
        if adds:
            category, attribute = adds[index]
            changed[index] = data.draw(
                st.sampled_from(
                    [
                        (category, attribute),
                        (
                            data.draw(st.sampled_from(list(Category))),
                            attribute,
                        ),
                        (
                            category,
                            Attribute(
                                attribute.attribute_id,
                                attribute.values,
                                data.draw(st.sampled_from(ISSUERS)),
                            ),
                        ),
                        (
                            category,
                            Attribute(
                                attribute.attribute_id,
                                data.draw(value_tuples),
                                attribute.issuer,
                            ),
                        ),
                    ]
                )
            )
        changed = data.draw(st.permutations(changed))
        assert (
            build(RequestContext, adds).cache_key()
            == build(RequestContext, changed).cache_key()
        ) == (identity(adds) == identity(changed))

    @settings(max_examples=150, deadline=None)
    @given(add_sequences(ids=hostile_text))
    def test_key_survives_the_wire(self, adds):
        request = build(RequestContext, adds)
        assert (
            parse_request(serialize_request(request)).cache_key()
            == request.cache_key()
        )

    @given(add_sequences())
    def test_key_is_sorted_hashable_and_skips_the_environment(self, adds):
        key = build(RequestContext, adds).cache_key()
        assert list(key) == sorted(key)
        hash(key)
        assert len(key) == sum(identity(adds).values())
        assert all(part[0] != Category.ENVIRONMENT.value for part in key)

    def test_what_the_engine_tells_apart_the_key_tells_apart(self):
        def subject(value, issuer=None):
            request = RequestContext.simple("s", "r", "a")
            request.add(
                Category.SUBJECT, Attribute("urn:test:role", (value,), issuer)
            )
            return request.cache_key()

        admin = string("admin")
        keys = [
            subject(admin),
            subject(admin, issuer=""),
            subject(admin, issuer="hr"),
            subject(admin, issuer="mallory"),
            subject(AttributeValue(DataType.ANY_URI, "admin")),
            subject(AttributeValue(DataType.ANY_URI, "admin"), issuer="hr"),
        ]
        assert len(set(keys)) == len(keys)

    def test_environment_is_not_identity(self):
        assert (
            RequestContext.simple(
                "s", "r", "a", environment={"urn:test:tod": [string("noon")]}
            ).cache_key()
            == RequestContext.simple("s", "r", "a").cache_key()
        )

    @settings(max_examples=150, deadline=None)
    @given(add_sequences(), st.sampled_from(["alice", "1", "true", "", "nobody"]))
    def test_a_revocation_reaches_every_variant_of_an_id(self, adds, wanted):
        """``cache_key_touches`` compares category, id and lexical value
        only: whatever type or issuer the id was sent under, the entry
        is a victim (over-, never under-invalidate)."""
        key = build(RequestContext, adds).cache_key()
        for category, attribute_id, filters in (
            (Category.SUBJECT, SUBJECT_ID, {"subject_id": wanted}),
            (Category.RESOURCE, RESOURCE_ID, {"resource_id": wanted}),
        ):
            carried = any(
                held is category
                and attribute.attribute_id == attribute_id
                and any(value.lexical() == wanted for value in attribute.values)
                for held, attribute in adds
            )
            assert cache_key_touches(key, **filters) == carried
        assert not cache_key_touches(key)

    def test_touches_matches_either_filter(self):
        key = RequestContext.simple("alice", "doc", "read").cache_key()
        assert cache_key_touches(key, subject_id="alice", resource_id="other")
        assert cache_key_touches(key, subject_id="bob", resource_id="doc")
        assert not cache_key_touches(key, subject_id="doc", resource_id="alice")
        assert not cache_key_touches(key, subject_id="read")


# -- one parsed response per distinct text ----------------------------------------


def response_text(resource_id: str, decision: Decision = Decision.PERMIT) -> str:
    return serialize_response(
        ResponseContext.single(decision, resource_id=resource_id)
    )


class CountingExpat:
    """Stands in for the ``ET`` the parser module reads; counts what
    reaches expat."""

    def __init__(self, real):
        self._real = real
        self.ParseError = real.ParseError
        self.calls = 0

    def fromstring(self, text):
        self.calls += 1
        return self._real.fromstring(text)


@pytest.fixture
def expat(monkeypatch):
    """Expat counted, the memo empty: what a first sight costs."""
    counting = CountingExpat(parser_module.ET)
    monkeypatch.setattr(parser_module, "ET", counting)
    parse_response.cache_clear()
    return counting


class TestResponseSharing:
    def test_equal_text_equal_result_one_parse(self, expat):
        text = response_text("sharing-one-parse")
        first = parse_response(text)
        assert expat.calls == 1
        # An equal text that is another object: the memo keys by value.
        again = parse_response("".join(list(text)))
        assert again == first == ResponseContext.single(
            Decision.PERMIT, resource_id="sharing-one-parse"
        )
        assert again is first
        assert expat.calls == 1

    def test_a_new_text_goes_through_expat_whole(self, expat):
        parse_response(response_text("sharing-new-text-1"))
        parse_response(response_text("sharing-new-text-2"))
        assert expat.calls == 2

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param("<Response><Result>", ParseError, id="ill-formed"),
            pytest.param("<Response />", ParseError, id="empty-response"),
            pytest.param(
                "<Response><Result><Decision>Maybe</Decision></Result></Response>",
                ParseError,
                id="unknown-decision",
            ),
            pytest.param(
                "<Response><Result><Decision>Permit</Decision><Obligations>"
                '<Obligation ObligationId="o" FulfillOn="NotApplicable" />'
                "</Obligations></Result></Response>",
                ValueError,
                id="obligation-on-a-non-decision",
            ),
        ],
    )
    def test_a_rejected_text_is_rejected_by_a_full_parse_every_time(
        self, expat, text, error
    ):
        for attempt in (1, 2, 3):
            with pytest.raises(error):
                parse_response(text)
            assert expat.calls == attempt

    def test_the_table_is_bounded(self):
        for index in range(10 * RESPONSE_MEMO_SIZE):
            parse_response(
                f"<Response><Result ResourceId=\"bound-{index}\">"
                "<Decision>Deny</Decision></Result></Response>"
            )
        info = parse_response.cache_info()
        assert info.maxsize == RESPONSE_MEMO_SIZE
        assert info.currsize == RESPONSE_MEMO_SIZE

    def test_results_are_immutable_all_the_way_down(self):
        """What makes sharing unobservable."""
        response = parse_response(
            "<Response><Result><Decision>Permit</Decision><Obligations>"
            '<Obligation ObligationId="o" FulfillOn="Permit">'
            '<AttributeAssignment AttributeId="k" '
            f'DataType="{DataType.STRING.value}">v</AttributeAssignment>'
            "</Obligation></Obligations></Result></Response>"
        )
        result = response.result
        obligation = result.obligations[0]
        assignment = obligation.assignments[0]
        for frozen, field in (
            (response, "results"),
            (result, "decision"),
            (result.status, "code"),
            (obligation, "assignments"),
            (assignment, "value"),
            (assignment.value, "value"),
        ):
            with pytest.raises(AttributeError):
                setattr(frozen, field, None)
        assert isinstance(response.results, tuple)
        assert isinstance(result.obligations, tuple)
        assert isinstance(obligation.assignments, tuple)

    def test_round_trip_and_golden_bytes_hold_with_the_table_warm(self):
        response = ResponseContext.single(Decision.DENY, resource_id="warm")
        text = serialize_response(response)
        assert text == (
            '<Response><Result ResourceId="warm"><Decision>Deny</Decision>'
            '<Status><StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok" />'
            "</Status></Result></Response>"
        )
        for _ in range(3):
            parsed = parse_response(text)
            assert parsed == response
            assert serialize_response(parsed) == text


# -- shape -------------------------------------------------------------------------


class TestShape:
    """Requests are the most numerous live objects in the cached
    workloads: a side index on each one cost +17 MiB where the RSS
    bound is 5% (ROADMAP direction 3).  The next one trips here."""

    def test_a_request_has_no_dict_and_owns_one_container(self):
        request = RequestContext.simple("alice", "doc", "read")
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.index = {}
        held = [getattr(request, slot) for slot in RequestContext.__slots__]
        assert len(held) == 1
        (entries,) = held
        assert type(entries) is list and len(entries) == 3
        # n attributes: the list and one pair each, nothing else.
        for pair in entries:
            assert type(pair) is tuple and len(pair) == 2
            assert isinstance(pair[0], Category)
            assert isinstance(pair[1], Attribute)

    def test_an_empty_request_builds_nothing_per_category(self):
        (entries,) = [
            getattr(RequestContext(), slot) for slot in RequestContext.__slots__
        ]
        assert entries == []

    def test_values_and_attributes_have_no_dict(self):
        value = string("v")
        attribute = Attribute.of("a", value)
        assert not hasattr(value, "__dict__")
        assert not hasattr(attribute, "__dict__")
        # Still frozen, still equal and hashable by content.
        with pytest.raises(AttributeError):
            value.value = "w"
        with pytest.raises(AttributeError):
            attribute.issuer = "x"
        assert {value, string("v")} == {value}
        assert {attribute, Attribute.of("a", string("v"))} == {attribute}

    def test_the_key_is_not_kept(self):
        request = RequestContext.simple("alice", "doc", "read")
        assert request.cache_key() is not request.cache_key()

    def test_reads_and_the_key_stay_out_of_the_enum_module(self):
        """The cost model, pinned: categories and data types are told
        apart with ``is`` and named through ``_value_``.  Hashing a
        member, comparing members by ``.value`` or reading ``.value`` at
        all is a Python-level call into ``enum.py`` per attribute."""
        request = RequestContext.simple(
            "alice",
            "doc",
            "read",
            subject_attributes={"urn:test:role": [string("a"), string("b")]},
            environment={"urn:test:tod": [string("noon")]},
        )
        delegate = Attribute.of("d", string("v"))
        entered: list[str] = []

        def watch(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.endswith("enum.py"):
                entered.append(frame.f_code.co_name)

        sys.setprofile(watch)
        try:
            request.add(Category.DELEGATE, delegate)
            request.attributes(Category.SUBJECT)
            request.bag(Category.SUBJECT, "urn:test:role", DataType.STRING)
            request.bag(Category.SUBJECT, "urn:test:role", DataType.STRING, "hr")
            request.values(Category.SUBJECT, "urn:test:role")
            request.first_value(Category.ENVIRONMENT, "urn:test:tod")
            key = request.cache_key()
            cache_key_touches(key, subject_id="alice", resource_id="doc")
        finally:
            sys.setprofile(None)
        assert entered == []
        assert request.subject_id == "alice"
