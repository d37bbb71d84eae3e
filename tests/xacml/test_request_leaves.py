"""Request attributes are shared leaves.

``xacml.attributes._attribute_of`` builds every attribute the wire
decoders read and the three ids ``RequestContext.simple`` writes, one
object per distinct (id, issuer, typed values) — the contract of the
policy-side memos (``_designator_of``), under its own bound.  Sharing
must be unobservable but by ``is``: a request decoded with the memo
cold, warm or full of other leaves is the same request, byte for byte.
"""

import pytest
from hypothesis import given, settings

from repro.saml import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from repro.xacml import (
    Category,
    DataType,
    ParseError,
    RequestContext,
    parse_request,
    serialize_request,
)
from repro.xacml.attributes import REQUEST_LEAF_MEMO_SIZE, _attribute_of

from test_codec import element_text, request_contexts, subject_attribute


def leaves(request):
    return [attribute for category in Category for attribute in request.attributes(category)]


def fill_with_other_leaves():
    for index in range(REQUEST_LEAF_MEMO_SIZE):
        _attribute_of("urn:test:other", None, ((DataType.STRING.value, f"other-{index}"),))


class TestOneLeafPerDistinctAttribute:
    def test_built_and_decoded_requests_share_their_attributes(self):
        built = RequestContext.simple("alice", "doc", "read")
        batch = XacmlAuthzDecisionBatchQuery.for_requests([built, built], "pep", 0.5)
        decoded = [
            RequestContext.simple("alice", "doc", "read"),
            parse_request(serialize_request(built)),
            XacmlAuthzDecisionQuery.from_xml(batch.queries[0].to_xml()).request,
            *(query.request for query in XacmlAuthzDecisionBatchQuery.from_xml(batch.to_xml()).queries),
        ]
        for request in decoded:
            assert len(leaves(request)) == 3
            assert all(a is b for a, b in zip(leaves(request), leaves(built), strict=True))

    def test_requests_that_differ_share_what_they_have_in_common(self):
        alice, bob = (RequestContext.simple(s, "doc", "read") for s in ("alice", "bob"))
        (alice_id, *alice_rest), (bob_id, *bob_rest) = leaves(alice), leaves(bob)
        assert alice_id is not bob_id and alice_id != bob_id
        assert all(a is b for a, b in zip(alice_rest, bob_rest, strict=True))

    @settings(max_examples=40, deadline=None)
    @given(request_contexts(element_text))
    def test_cold_warm_and_crowded_decodes_are_one_request(self, request):
        text = serialize_request(request)
        _attribute_of.cache_clear()
        cold = parse_request(text)
        warm = parse_request(text)
        fill_with_other_leaves()
        crowded = parse_request(text)
        for decoded in (cold, warm, crowded):
            assert decoded.cache_key() == request.cache_key()
            assert serialize_request(decoded) == text
        assert all(a is b for a, b in zip(leaves(cold), leaves(warm), strict=True))

    @pytest.mark.parametrize("order", [("0.0", "-0.0"), ("-0.0", "0.0")], ids=["+-", "-+"])
    def test_equal_doubles_keep_their_own_lexical_form(self, order):
        """``double(0.0) == double(-0.0)`` with equal hashes: a memo
        keyed on values would hand the second request the first one's
        number, and the serializer would write another text."""
        _attribute_of.cache_clear()
        for lexical in order:
            text = subject_attribute(
                f'<AttributeValue DataType="{DataType.DOUBLE.value}">{lexical}</AttributeValue>'
            )
            (value,) = parse_request(text).values(Category.SUBJECT, "a")
            assert value.lexical() == lexical
            assert serialize_request(parse_request(text)) == text


#: Attributes a leaf refuses, as the walk hands them over.
REFUSED = {
    "unknown-data-type": '<AttributeValue DataType="urn:bogus">v</AttributeValue>',
    "bad-integer": f'<AttributeValue DataType="{DataType.INTEGER.value}">x</AttributeValue>',
    "no-values": "",
}


class TestExceptionsAreNeverRemembered:
    @pytest.mark.parametrize("inner", REFUSED.values(), ids=REFUSED.keys())
    def test_a_refused_attribute_is_refused_on_every_decode(self, inner):
        text = subject_attribute(inner)
        good = subject_attribute(f'<AttributeValue DataType="{DataType.STRING.value}">v</AttributeValue>')
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_request(text)
            assert parse_request(good).first_value(Category.SUBJECT, "a").value == "v"

    def test_the_constructor_raises_every_time(self):
        for values in (
            (("urn:bogus", "v"),),
            ((DataType.INTEGER.value, "x"),),
            (),
        ):
            for _ in range(2):
                with pytest.raises(ValueError):
                    _attribute_of("a", None, values)
        for _ in range(2):
            with pytest.raises(TypeError):
                RequestContext.simple(7, "doc", "read")


class TestBounded:
    def test_ten_thousand_subjects_later(self):
        first = RequestContext.simple("subject-0", "doc", "read")
        for index in range(10_000):
            RequestContext.simple(f"subject-{index}", "doc", "read")
        info = _attribute_of.cache_info()
        assert info.maxsize == REQUEST_LEAF_MEMO_SIZE
        assert info.currsize <= REQUEST_LEAF_MEMO_SIZE
        # What every request repeats stays by recency; a subject seen
        # once is gone.
        later = RequestContext.simple("subject-0", "doc", "read")
        assert leaves(later)[1:] == leaves(first)[1:]
        assert all(a is b for a, b in zip(leaves(later)[1:], leaves(first)[1:], strict=True))
        assert leaves(later)[0] == leaves(first)[0] and leaves(later)[0] is not leaves(first)[0]
