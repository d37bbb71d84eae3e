"""The one-pass query decoders against the pattern decoders they replaced.

A query envelope used to be read by patterns that tiled the batch body
plus a fresh expat parse of every ``<Request>`` fragment; the forwarded
batch's wrapper by one more pattern.  Those decoders are kept below,
as they were, as the oracle.  On everything the writers produce, the
two must return equal values.  On a valid batch with one character or
junk token inserted, deleted or replaced anywhere, they must agree
wherever the oracle accepts — up to the divergences listed in
:func:`check_mutation`, each of which is the new decoder reading the
text as XML reads it — and whatever only the new decoder accepts must
be canonical: written again and read again, it is the same value.
"""

import math
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.components import ForwardedBatchQuery
from repro.saml import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from repro.saml.xacml_profile import NAMESPACES
from repro.xacml import Attribute, Category, RequestContext, string
from repro.xacml.parser import parse_request
from repro.xmlutil import parse_attrs, unescape

from test_xacml_profile import (
    QUERY_CLOSE,
    alice,
    header_text,
    insert,
    instants,
    queries,
    two_query_batch,
)

# -- the oracle: the pattern decoders, as they were -------------------------------

_REQUEST = r"(<Request>.*?</Request>|<Request />)"
_ISSUER = r"<saml:Issuer>([^<]*)</saml:Issuer>"
_QUERY_XML = (
    r'<xacml-samlp:XACMLAuthzDecisionQuery ID="([^"]*)" '
    r'IssueInstant="([^"]*)" ReturnContext="([^"]*)">'
    rf"{_ISSUER}{_REQUEST}"
    r"</xacml-samlp:XACMLAuthzDecisionQuery>"
)
_QUERY = re.compile(_QUERY_XML + "$", re.DOTALL)
_BATCHED_QUERY = re.compile(_QUERY_XML, re.DOTALL)
_BATCH_QUERY = re.compile(
    r'<xacml-samlp:XACMLAuthzDecisionBatchQuery ID="([^"]*)" '
    r'IssueInstant="([^"]*)" Count="(\d+)">'
    rf"{_ISSUER}(.*)"
    r"</xacml-samlp:XACMLAuthzDecisionBatchQuery>$",
    re.DOTALL,
)


def _tile(pattern, body, what):
    position = 0
    while position < len(body):
        match = pattern.match(body, position)
        if match is None:
            raise ValueError(f"not an {what}")
        yield match
        position = match.end()


def _query_of_match(match):
    query_id, issue_instant, return_context, issuer, request = match.groups()
    return XacmlAuthzDecisionQuery(
        request=parse_request(request),
        issuer=unescape(issuer),
        issue_instant=float(issue_instant),
        return_context=return_context == "true",
        query_id=unescape(query_id),
    )


def oracle_query(xml_text):
    match = _QUERY.match(xml_text)
    if match is None:
        raise ValueError("not an XACMLAuthzDecisionQuery")
    return _query_of_match(match)


def oracle_batch(xml_text):
    match = _BATCH_QUERY.match(xml_text)
    if match is None:
        raise ValueError("not an XACMLAuthzDecisionBatchQuery")
    batch_id, issue_instant, count, issuer, body = match.groups()
    queries = tuple(
        _query_of_match(inner)
        for inner in _tile(_BATCHED_QUERY, body, "XACMLAuthzDecisionBatchQuery")
    )
    if len(queries) != int(count):
        raise ValueError(f"batch declares {count} queries, found {len(queries)}")
    return XacmlAuthzDecisionBatchQuery(
        queries=queries,
        issuer=unescape(issuer),
        issue_instant=float(issue_instant),
        batch_id=unescape(batch_id),
    )


def oracle_forward(xml_text):
    match = re.match(
        r"<fed:ForwardedBatchQuery ([^>]*)>(.*)</fed:ForwardedBatchQuery>$",
        xml_text,
        re.DOTALL,
    )
    if match is None:
        raise ValueError("not a ForwardedBatchQuery")
    attrs = parse_attrs(match.group(1))
    for required in ("OriginDomain", "OriginGateway", "TTL"):
        if required not in attrs:
            raise ValueError(f"ForwardedBatchQuery missing {required}")
    return ForwardedBatchQuery(
        batch=oracle_batch(match.group(2)),
        origin_domain=attrs["OriginDomain"],
        origin_gateway=attrs["OriginGateway"],
        ttl=int(attrs["TTL"]),
    )


# -- comparing ------------------------------------------------------------------


def view_request(request):
    return tuple(tuple(request.attributes(category)) for category in Category)


def view_query(query):
    # repr: an IssueInstant of "nan" must compare equal to itself.
    return (
        query.query_id,
        query.issuer,
        repr(query.issue_instant),
        query.return_context,
        view_request(query.request),
    )


def view_batch(batch):
    return (
        batch.batch_id,
        batch.issuer,
        repr(batch.issue_instant),
        tuple(map(view_query, batch.queries)),
    )


def view_forward(forwarded):
    return (
        forwarded.origin_domain,
        forwarded.origin_gateway,
        forwarded.ttl,
        view_batch(forwarded.batch),
    )


def decoded(decoder, xml_text):
    """What ``decoder`` makes of the text; None when it refuses it."""
    try:
        return decoder(xml_text)
    except ValueError:  # ParseError is one
        return None


new_batch = XacmlAuthzDecisionBatchQuery.from_xml


class TestEqualOnWhatTheWritersProduce:
    @given(queries)
    def test_query(self, query):
        text = query.to_xml()
        assert view_query(XacmlAuthzDecisionQuery.from_xml(text)) == view_query(
            oracle_query(text)
        )

    @given(st.lists(queries, min_size=1, max_size=4), header_text, instants, header_text)
    def test_batch_query(self, inner, issuer, instant, batch_id):
        text = XacmlAuthzDecisionBatchQuery(tuple(inner), issuer, instant, batch_id).to_xml()
        assert view_batch(new_batch(text)) == view_batch(oracle_batch(text))

    @given(
        st.lists(queries, min_size=1, max_size=2),
        header_text,
        header_text,
        st.integers(min_value=1, max_value=9),
    )
    def test_forwarded_batch(self, inner, domain, gateway, ttl):
        batch = XacmlAuthzDecisionBatchQuery(tuple(inner), "gw", 0.5, "b")
        text = ForwardedBatchQuery(batch, domain, gateway, ttl).to_xml()
        assert view_forward(ForwardedBatchQuery.from_xml(text)) == view_forward(
            oracle_forward(text)
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
WHITESPACE = {"\t", "\n", "\r"}
CHARACTER_REFERENCE = re.compile(r"&#(x[0-9a-fA-F]+|[0-9]+);")


def read_as_xml(xml_text, token, offset):
    """Where both accept, may the new decoder read a header differently
    from the oracle?  At an edit that wrote a literal tab, line feed or
    carriage return (XML turns one in an attribute value into a space,
    and a carriage return in text into a line feed; the patterns kept
    them), or that made or touched a character reference (XML resolves
    every one; the oracle's ``unescape`` only those the writers emit)."""
    end = offset + len(token)
    return token in WHITESPACE or any(
        reference.start() <= end and offset <= reference.end()
        for reference in CHARACTER_REFERENCE.finditer(xml_text)
    )


_HOLDER = "<holder {}>".format(
    " ".join(f'xmlns:{prefix}="{uri}"' for prefix, uri in NAMESPACES.items())
)


INSTANT = re.compile(r'IssueInstant="([^"]*)"')


def written_instant(text):
    """Is ``text`` an instant as the writers write one: ``str`` of a
    finite float, or of an integer?"""
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and text in (str(value), str(int(value)))


def refused_on_purpose(xml_text):
    """Why the new decoder may refuse a text the oracle accepted: markup
    the writers never emit and a tree would drop, a line feed after the
    envelope (the patterns' ``$`` matched before it, so it went unread),
    an instant the writers never write (the oracle's ``float()`` also
    read spaces, signs, ``1_0``, ``nan`` and ``inf``), or text that is
    not XML once the envelope prefixes are bound (the patterns never
    asked whether it was)."""
    if "<!" in xml_text or "<?" in xml_text or xml_text.endswith("\n"):
        return True
    if not all(map(written_instant, INSTANT.findall(xml_text))):
        return True
    try:
        ET.fromstring(f"{_HOLDER}{xml_text}</holder>")
    except ET.ParseError:
        return True
    return False


def carriage_return_in_a_value(batch):
    """The XACML context writer puts a carriage return into element text
    as it is, and XML reads it back as a line feed (``test_codec.py``
    keeps it out of its alphabet for that reason): such a request is no
    fixed point, whichever decoder read it."""
    return any(
        "\r" in value.lexical()
        for query in batch.queries
        for category in Category
        for attribute in query.request.attributes(category)
        for value in attribute.values
    )


def check_mutation(xml_text, token, offset):
    old = decoded(oracle_batch, xml_text)
    new = decoded(new_batch, xml_text)
    if new is not None and not carriage_return_in_a_value(new):
        assert view_batch(new_batch(new.to_xml())) == view_batch(new), xml_text
    if old is None:
        return
    if new is None:
        assert refused_on_purpose(xml_text), xml_text
    elif view_batch(new) != view_batch(old):
        assert read_as_xml(xml_text, token, offset), (xml_text, token)
        assert [view_request(q.request) for q in new.queries] == [
            view_request(q.request) for q in old.queries
        ], xml_text


def mutations(xml_text):
    """Every insertion, replacement and deletion of one token."""
    for offset in range(len(xml_text) + 1):
        head, tail = xml_text[:offset], xml_text[offset:]
        for token in TOKENS:
            yield head + token + tail, token, offset
            if tail:
                yield head + token + tail[1:], token, offset
        if tail:
            yield head + tail[1:], "", offset


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
        text = compact_batch().to_xml()
        for mutation in mutations(text):
            check_mutation(*mutation)

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
        check_mutation(text[:offset] + token + tail, token, offset)


# -- explicit cells ---------------------------------------------------------------

MARKUP = {
    "comment": "<!-- c -->",
    "processing-instruction": "<?pi x?>",
    "cdata": "<![CDATA[x]]>",
    "doctype": '<!DOCTYPE holder [<!ENTITY e "x">]>',
}
REFUSED_MARKUP = "comment, processing instruction, CDATA or declaration"


class TestMarkupATreeWouldDrop:
    """A default tree builder drops comments and processing instructions
    without a trace, and an empty CDATA section leaves nothing: between
    two queries they would vanish instead of being refused."""

    @pytest.mark.parametrize("junk", MARKUP.values(), ids=MARKUP.keys())
    @pytest.mark.parametrize("where", ["before", "between", "after"])
    def test_at_wrapper_level(self, where, junk):
        text = insert(two_query_batch().to_xml(), QUERY_CLOSE, where, junk)
        assert decoded(oracle_batch, text) is None
        refused = f"not an XACMLAuthzDecisionBatchQuery: {REFUSED_MARKUP}"
        with pytest.raises(ValueError, match=refused):
            new_batch(text)

    @pytest.mark.parametrize("junk", MARKUP.values(), ids=MARKUP.keys())
    def test_inside_a_value(self, junk):
        """The patterns handed the fragment to expat, which dropped a
        comment or PI and joined the text around it (or refused the
        declaration); never decoded to some other value, it is refused."""
        text = two_query_batch().to_xml().replace(">alice<", f">al{junk}ice<")
        with pytest.raises(ValueError, match=REFUSED_MARKUP):
            new_batch(text)
        old = decoded(oracle_batch, text)
        if junk.startswith("<!DOCTYPE"):
            assert old is None
        else:
            assert old is not None

    def test_an_empty_cdata_between_queries(self):
        text = insert(two_query_batch().to_xml(), QUERY_CLOSE, "between", "<![CDATA[]]>")
        with pytest.raises(ValueError, match=REFUSED_MARKUP):
            new_batch(text)


REDECLARED = ' xmlns:saml="urn:x"'
DEFAULT_NAMESPACE = ' xmlns="urn:x"'
DECLARATIONS = pytest.mark.parametrize(
    "declaration", [REDECLARED, DEFAULT_NAMESPACE], ids=["prefix", "default"]
)
#: Start tags a declaration is written into, by the element they open.
START_TAGS = {
    "batch": "<xacml-samlp:XACMLAuthzDecisionBatchQuery",
    "issuer": "<saml:Issuer",
    "query": "<xacml-samlp:XACMLAuthzDecisionQuery",
    "request": "<Request",
}


class TestNamespaces:
    """The prefixes are the holder's; a text that rebinds one, or sets a
    default namespace, renames what it covers and fails a tag check."""

    @DECLARATIONS
    @pytest.mark.parametrize("element", START_TAGS)
    def test_on_the_wrapper(self, element, declaration):
        tag = START_TAGS[element]
        text = two_query_batch().to_xml().replace(tag, tag + declaration, 1)
        assert decoded(oracle_batch, text) is None
        # No unprefixed name inside an Issuer, no saml: name inside a
        # Request: there the declaration renames nothing, and the text
        # says what it said without it.
        if (element, declaration) in {("issuer", DEFAULT_NAMESPACE), ("request", REDECLARED)}:
            assert view_batch(new_batch(text)) == view_batch(two_query_batch())
        else:
            with pytest.raises(ValueError, match="not an XACMLAuthzDecisionBatchQuery"):
                new_batch(text)

    @DECLARATIONS
    def test_on_a_value(self, declaration):
        tag = "<AttributeValue"
        text = two_query_batch().to_xml().replace(tag, tag + declaration, 1)
        old, new = decoded(oracle_batch, text), decoded(new_batch, text)
        assert (old is None) == (new is None) == (declaration == DEFAULT_NAMESPACE)
        if new is not None:
            assert view_batch(new) == view_batch(old)


class TestHeaders:
    def test_a_carriage_return_in_the_issuer_round_trips(self):
        query = XacmlAuthzDecisionQuery(alice(), "a\rb", 0.0)
        batch = XacmlAuthzDecisionBatchQuery((query,), "\r", 0.0, "b")
        text = batch.to_xml()
        assert "<saml:Issuer>a&#13;b</saml:Issuer>" in text
        assert "\r" not in text
        parsed = new_batch(text)
        assert (parsed.issuer, parsed.queries[0].issuer) == ("\r", "a\rb")
        assert view_batch(parsed) == view_batch(oracle_batch(text))
        assert XacmlAuthzDecisionQuery.from_xml(query.to_xml()).issuer == "a\rb"

    @pytest.mark.parametrize("count", [" 2", "+2", "٢", "2 ", ""])
    def test_count_is_ascii_digits(self, count):
        text = two_query_batch().to_xml().replace('Count="2"', f'Count="{count}"')
        with pytest.raises(ValueError, match="not an XACMLAuthzDecisionBatchQuery"):
            new_batch(text)
        # The pattern's \d took any Unicode digit.
        assert (decoded(oracle_batch, text) is not None) == (count == "٢")


class TestForwardedWrapper:
    @pytest.mark.parametrize("junk", [" ", "x", "<x/>", "&amp;", "<!-- c -->"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_junk_beside_the_batch_is_refused(self, where, junk):
        batch = XacmlAuthzDecisionBatchQuery.for_requests([alice()], "gw", 0.0)
        text = ForwardedBatchQuery(batch, "west", "gw.west").to_xml()
        head, close, _ = text.rpartition("</fed:ForwardedBatchQuery>")
        if where == "before":
            opened = text.index(">") + 1
            text = text[:opened] + junk + text[opened:]
        else:
            text = head + junk + close
        assert decoded(oracle_forward, text) is None
        with pytest.raises(ValueError, match="not an? (ForwardedBatchQuery|XACML)"):
            ForwardedBatchQuery.from_xml(text)
