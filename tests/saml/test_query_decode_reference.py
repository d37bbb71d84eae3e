"""The one-pass query decoders judged by the reference semantics.

:mod:`reference.wire` reads a query envelope with ElementTree and the
README's rules.  On everything the writers produce, the decoders must
return what it reads, which is what was written.  On a valid batch with
one character or junk token inserted, deleted or replaced at any
offset, and on the edits of the explicit cells, they must accept exactly
what it accepts and read exactly what it reads.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from reference import wire

from repro.components import ForwardedBatchQuery
from repro.saml import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from repro.xacml import Attribute, Category, RequestContext, double, integer, string

from test_xacml_profile import (
    QUERY_CLOSE,
    alice,
    header_text,
    insert,
    instants,
    queries,
    two_query_batch,
)

# -- comparing ------------------------------------------------------------------


def view_request(request):
    return tuple(tuple(request.attributes(category)) for category in Category)


def view_query(q):
    # repr: the reference reads an instant as the repr of its float.
    return q.query_id, q.issuer, repr(q.issue_instant), q.return_context, view_request(q.request)


def view_batch(b):
    return b.batch_id, b.issuer, repr(b.issue_instant), tuple(map(view_query, b.queries))


def view_forward(f):
    return f.origin_domain, f.origin_gateway, f.ttl, view_batch(f.batch)


def decoded(decoder, xml_text):
    """What ``decoder`` makes of the text; None when it refuses it."""
    try:
        return decoder(xml_text)
    except ValueError:  # ParseError is one
        return None


new_batch = XacmlAuthzDecisionBatchQuery.from_xml


def judged(decoder, view, reference, xml_text):
    """The decoder's view of the text, None for a refusal, once it is
    what the reference reads."""
    got = decoded(decoder, xml_text)
    got = None if got is None else view(got)
    assert got == decoded(reference, xml_text), xml_text
    return got


class TestEqualOnWhatTheWritersProduce:
    @given(queries)
    def test_query(self, query):
        text = query.to_xml()
        assert judged(XacmlAuthzDecisionQuery.from_xml, view_query, wire.read_query, text) == (
            view_query(query)
        )

    @given(st.lists(queries, min_size=1, max_size=4), header_text, instants, header_text)
    def test_batch_query(self, inner, issuer, instant, batch_id):
        batch = XacmlAuthzDecisionBatchQuery(tuple(inner), issuer, instant, batch_id)
        assert judged(new_batch, view_batch, wire.read_batch, batch.to_xml()) == view_batch(batch)

    @given(
        st.lists(queries, min_size=1, max_size=2),
        header_text,
        header_text,
        st.integers(min_value=1, max_value=9),
    )
    def test_forwarded_batch(self, inner, domain, gateway, ttl):
        batch = XacmlAuthzDecisionBatchQuery(tuple(inner), "gw", 0.5, "b")
        forwarded = ForwardedBatchQuery(batch, domain, gateway, ttl)
        text = forwarded.to_xml()
        assert judged(ForwardedBatchQuery.from_xml, view_forward, wire.read_forward, text) == (
            view_forward(forwarded)
        )


# -- mutations ------------------------------------------------------------------

#: What a mutation inserts, or puts in place of one character.
TOKENS = (
    *'<>&"\'=/ x0é',
    "\t",
    "\n",
    "\r",
    "<!-- c -->",
    "<?pi x?>",
    "<![CDATA[x]]>",
    "&amp;",
    "&#13;",
    "&#65;",
    "<x/>",
    "</x>",
    ' xmlns:saml="urn:x"',
    ' xmlns="urn:x"',
)


def mutations(xml_text):
    """Every insertion, replacement and deletion of one token."""
    for offset in range(len(xml_text) + 1):
        head, tail = xml_text[:offset], xml_text[offset:]
        for token in TOKENS:
            yield head + token + tail
            if tail:
                yield head + token + tail[1:]
        if tail:
            yield head + tail[1:]


def compact_batch():
    """Two queries, one hostile header, one request of one hostile value:
    short enough to mutate at every offset."""
    request = RequestContext()
    request.add(Category.SUBJECT, Attribute("id", (string('a"<&b'),)))
    return XacmlAuthzDecisionBatchQuery(
        queries=(
            XacmlAuthzDecisionQuery(request, "p&e<p", 1.5, query_id="q\t1"),
            XacmlAuthzDecisionQuery(RequestContext(), "pep", 2.0, True, "q-2"),
        ),
        issuer="gw",
        issue_instant=0.25,
        batch_id="b-1",
    )


class TestMutations:
    def test_every_offset_of_a_compact_batch(self):
        for mutation in mutations(compact_batch().to_xml()):
            judged(new_batch, view_batch, wire.read_batch, mutation)

    @given(
        st.lists(queries, min_size=1, max_size=3),
        header_text,
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sampled_offsets_of_hostile_batches(self, inner, issuer, data):
        text = XacmlAuthzDecisionBatchQuery(tuple(inner), issuer, 0.5, "b").to_xml()
        offset = data.draw(st.integers(min_value=0, max_value=len(text)))
        token = data.draw(st.sampled_from(TOKENS))
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        tail = text[offset:] if edit == "insert" else text[offset + 1 :]
        token = "" if edit == "delete" else token
        judged(new_batch, view_batch, wire.read_batch, text[:offset] + token + tail)


# -- explicit cells ---------------------------------------------------------------

BATCH_TEXT = two_query_batch().to_xml()
MARKUP = {
    "comment": "<!-- c -->",
    "processing-instruction": "<?pi x?>",
    "cdata": "<![CDATA[x]]>",
    "doctype": '<!DOCTYPE holder [<!ENTITY e "x">]>',
}
#: A tree would drop comments and processing instructions without a
#: trace, and an empty CDATA section leaves nothing: between two queries
#: they would vanish instead of being refused, inside a value join the
#: text around them.
REFUSED_MARKUP = "comment, processing instruction, CDATA or declaration"
NOT_A_BATCH = "not an XACMLAuthzDecisionBatchQuery"
#: Start tags a namespace declaration is written into.  The prefixes are
#: the holder's: a text that rebinds one, or sets a default namespace,
#: renames what it covers and fails a tag check.  No unprefixed name is
#: inside an Issuer, no ``saml:`` name inside a Request: there the
#: declaration renames nothing, and the text says what it said without it.
START_TAGS = {
    "batch": "<xacml-samlp:XACMLAuthzDecisionBatchQuery",
    "issuer": "<saml:Issuer",
    "query": "<xacml-samlp:XACMLAuthzDecisionQuery",
    "request": "<Request",
    "value": "<AttributeValue",
}
DECLARATIONS = {"prefix": ' xmlns:saml="urn:x"', "default": ' xmlns="urn:x"'}
HARMLESS = {("issuer", "default"), ("request", "prefix"), ("value", "prefix")}


def edited(old, new):
    return BATCH_TEXT.replace(old, new, 1)


#: An edit of a valid batch -> the refusal it must meet (a pattern of
#: the message), or None: it reads as the batch it was.
EDITS = {
    **{
        f"{name}-{where}": (insert(BATCH_TEXT, QUERY_CLOSE, where, junk), REFUSED_MARKUP)
        for name, junk in MARKUP.items()
        for where in ("before", "between", "after")
    },
    **{
        f"{name}-in-a-value": (edited(">alice<", f">al{junk}ice<"), REFUSED_MARKUP)
        for name, junk in MARKUP.items()
    },
    "empty-cdata-between": (
        insert(BATCH_TEXT, QUERY_CLOSE, "between", "<![CDATA[]]>"),
        REFUSED_MARKUP,
    ),
    **{
        f"{name}-on-{element}": (
            edited(tag, tag + declaration),
            None if (element, name) in HARMLESS
            else "has no values" if element == "value"
            else NOT_A_BATCH,
        )
        for element, tag in START_TAGS.items()
        for name, declaration in DECLARATIONS.items()
    },
    # Count is ASCII digits: int() also reads the others.
    **{
        f"count-{count!r}": (edited('Count="2"', f'Count="{count}"'), NOT_A_BATCH)
        for count in (" 2", "+2", "٢", "2 ", "")
    },
}


@pytest.mark.parametrize("text, refusal", EDITS.values(), ids=EDITS.keys())
def test_an_edited_batch(text, refusal):
    got = judged(new_batch, view_batch, wire.read_batch, text)
    if refusal is None:
        assert got == view_batch(two_query_batch())
    else:
        with pytest.raises(ValueError, match=refusal):
            new_batch(text)


def test_a_carriage_return_in_the_issuer_round_trips():
    query = XacmlAuthzDecisionQuery(alice(), "a\rb", 0.0)
    text = XacmlAuthzDecisionBatchQuery((query,), "\r", 0.0, "b").to_xml()
    assert "<saml:Issuer>a&#13;b</saml:Issuer>" in text
    assert "\r" not in text
    parsed = new_batch(text)
    assert (parsed.issuer, parsed.queries[0].issuer) == ("\r", "a\rb")
    assert view_batch(parsed) == wire.read_batch(text)
    assert XacmlAuthzDecisionQuery.from_xml(query.to_xml()).issuer == "a\rb"


@pytest.mark.parametrize("junk", [" ", "x", "<x/>", "&amp;", "<!-- c -->"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_junk_beside_a_forwarded_batch_is_refused(where, junk):
    batch = XacmlAuthzDecisionBatchQuery.for_requests([alice()], "gw", 0.0)
    text = ForwardedBatchQuery(batch, "west", "gw.west").to_xml()
    opened, closed = text.index(">") + 1, text.rindex("</fed:")
    at = opened if where == "before" else closed
    text = text[:at] + junk + text[at:]
    assert judged(ForwardedBatchQuery.from_xml, view_forward, wire.read_forward, text) is None
    with pytest.raises(ValueError, match="not an? (ForwardedBatchQuery|XACML)"):
        ForwardedBatchQuery.from_xml(text)


# -- numbers and booleans are read in XML Schema's forms --------------------------


def numbers_batch():
    """One query whose request carries an integer and a double."""
    request = RequestContext.simple("alice", "doc", "read")
    request.add(Category.SUBJECT, Attribute.of("urn:test:level", integer(10)))
    request.add(Category.SUBJECT, Attribute.of("urn:test:score", double(1.5)))
    return XacmlAuthzDecisionBatchQuery(
        (XacmlAuthzDecisionQuery(request, "pep", 0.5, query_id="q"),), "gw", 0.5, "b"
    )


NUMBERS_TEXT = numbers_batch().to_xml()
INTEGER_TEXT, DOUBLE_TEXT = ">10</AttributeValue>", ">1.5</AttributeValue>"


def with_number(old, new):
    assert old in NUMBERS_TEXT
    return NUMBERS_TEXT.replace(old, new.join((">", "</AttributeValue>")), 1)


@pytest.mark.parametrize(
    "old, new",
    [(INTEGER_TEXT, "1_0"), (INTEGER_TEXT, " ١٠ "), (DOUBLE_TEXT, "nan"), (DOUBLE_TEXT, "inf")],
    ids=["integer-underscore", "integer-arabic-indic-digits", "double-nan", "double-inf"],
)
def test_a_number_only_int_or_float_reads_is_refused(old, new):
    """``int()`` reads ``1_0`` and non-ASCII digits, ``float()`` reads
    ``nan`` and ``inf``: XML Schema's forms do not."""
    text = with_number(old, new)
    assert judged(new_batch, view_batch, wire.read_batch, text) is None
    with pytest.raises(ValueError, match="lexical value"):
        new_batch(text)


@pytest.mark.parametrize(
    "old, new, value",
    [
        (INTEGER_TEXT, " +10 ", 10),
        (INTEGER_TEXT, "-0", 0),
        (DOUBLE_TEXT, "INF", math.inf),
        (DOUBLE_TEXT, "-INF", -math.inf),
        (DOUBLE_TEXT, "1E3", 1000.0),
        (DOUBLE_TEXT, ".5", 0.5),
    ],
)
def test_xml_schema_number_forms_are_read(old, new, value):
    got = judged(new_batch, view_batch, wire.read_batch, with_number(old, new))
    (query,) = got[3]
    values = [a.values[0].value for a in query[4][0] if a.attribute_id.startswith("urn:test:")]
    assert value in values


def test_nan_is_read_as_xml_schema_spells_it():
    # NaN is no value equal to itself: compare what each reader read.
    text = with_number(DOUBLE_TEXT, "NaN")
    for got in (view_batch(new_batch(text)), wire.read_batch(text)):
        (query,) = got[3]
        (score,) = [a for a in query[4][0] if a.attribute_id == "urn:test:score"]
        assert math.isnan(score.values[0].value) and score.values[0].lexical() == "NaN"


def test_a_value_holding_an_element_is_refused():
    """ElementTree reads ``al<x/>ice`` as the text ``al``."""
    text = edited(">alice<", ">al<x/>ice<")
    assert judged(new_batch, view_batch, wire.read_batch, text) is None
    with pytest.raises(ValueError, match="holds an element"):
        new_batch(text)


@pytest.mark.parametrize("lexical, read", [("true", True), ("1", True), ("false", False), ("0", False)])
def test_return_context_is_an_xml_schema_boolean(lexical, read):
    text = edited('ReturnContext="false"', f'ReturnContext="{lexical}"')
    got = judged(new_batch, view_batch, wire.read_batch, text)
    assert got[3][0][3] is read


@pytest.mark.parametrize("lexical", ["tru", "True", "yes", "", " true"])
def test_return_context_refuses_what_is_no_xml_schema_boolean(lexical):
    text = edited('ReturnContext="false"', f'ReturnContext="{lexical}"')
    assert judged(new_batch, view_batch, wire.read_batch, text) is None
    with pytest.raises(ValueError, match=NOT_A_BATCH):
        new_batch(text)
