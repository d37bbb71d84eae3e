"""Which path reads a query: the canonical reader or expat.

The query decoders read the writers' own form with compiled patterns
and hand every other text, whole and unchanged, to the one expat pass
(``parse_envelope``).  Beside ``test_query_decode_reference.py``, which
judges what the decoders read, these cells pin which path reads it:

* writer output over canonical values never reaches expat, and reads
  what :mod:`reference.wire` reads;
* each text at the boundary of the canonical form goes to expat exactly
  once, whole, and reads what the reference reads;
* an echoed request, canonical or not, decodes the same through both
  paths of :func:`~repro.xacml.parser.parse_request`.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, strategies as st
from reference import wire

from repro.components import (
    QUERY_ACTION,
    Component,
    ForwardedBatchQuery,
    PolicyDecisionPoint,
)
from repro.components import federation
from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from repro.saml import xacml_profile
from repro.simnet import Network
from repro.xacml import (
    Attribute,
    Category,
    Policy,
    RequestContext,
    boolean,
    double,
    integer,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml import parser

from test_query_decode_reference import judged, view_batch, view_forward, view_query
from test_xacml_profile import alice, instants, two_query_batch

# -- writer output never reaches expat ------------------------------------------------

PRINTABLE = [chr(code) for code in range(0x20, 0x7F)]
#: Values the writers write as they are: no character they escape, and
#: none XML reads as other than itself (``]`` may close a CDATA end).
in_text = st.text(alphabet=[c for c in PRINTABLE if c not in "&<>]"], max_size=8)
in_attribute = st.text(alphabet=[c for c in PRINTABLE if c not in '"&<>'], max_size=8)
values = st.one_of(
    in_text.map(string),
    st.integers().map(integer),
    st.floats(allow_nan=False).map(double),
    st.booleans().map(boolean),
)
attributes = st.builds(
    Attribute,
    in_attribute,
    st.lists(values, min_size=1, max_size=3).map(tuple),
    st.none() | in_attribute,
)


@st.composite
def canonical_requests(draw):
    request = RequestContext()
    for category, attribute in draw(
        st.lists(st.tuples(st.sampled_from(list(Category)), attributes), max_size=4)
    ):
        request.add(category, attribute)
    return request


canonical_queries = st.builds(
    XacmlAuthzDecisionQuery,
    request=canonical_requests(),
    issuer=in_text,
    issue_instant=instants,
    return_context=st.booleans(),
    query_id=in_attribute,
)
canonical_batches = st.builds(
    XacmlAuthzDecisionBatchQuery,
    st.lists(canonical_queries, min_size=1, max_size=4).map(tuple),
    in_text,
    instants,
    in_attribute,
)


def refuse(xml_text, what):
    raise AssertionError(f"expat was asked to read writer output: {xml_text!r}")


@contextmanager
def expat_refused():
    """Every module that decodes a query envelope, with its expat pass
    replaced by a failure that no decoder takes for a refusal."""
    with mock.patch.object(xacml_profile, "parse_envelope", refuse), mock.patch.object(
        federation, "parse_envelope", refuse
    ):
        yield


class TestWriterOutputNeverReachesExpat:
    @given(canonical_queries)
    def test_query(self, query):
        text = query.to_xml()
        with expat_refused():
            got = judged(XacmlAuthzDecisionQuery.from_xml, view_query, wire.read_query, text)
        assert got == view_query(query)

    @given(canonical_batches)
    def test_batch(self, batch):
        text = batch.to_xml()
        with expat_refused():
            got = judged(XacmlAuthzDecisionBatchQuery.from_xml, view_batch, wire.read_batch, text)
        assert got == view_batch(batch)

    @given(canonical_batches, in_attribute, in_attribute, st.integers(1, 9))
    def test_forward(self, batch, domain, gateway, ttl):
        forward = ForwardedBatchQuery(batch, domain, gateway, ttl)
        text = forward.to_xml()
        with expat_refused():
            got = judged(ForwardedBatchQuery.from_xml, view_forward, wire.read_forward, text)
        assert got == view_forward(forward)


# -- the boundary of the canonical form -----------------------------------------------


def batch_with(request=None, issuer="pep-1"):
    return XacmlAuthzDecisionBatchQuery(
        (XacmlAuthzDecisionQuery(request or alice(), issuer, 1.5, query_id="q-1"),),
        "gw",
        1.75,
        "b-1",
    ).to_xml()


def edited(old, new):
    text = two_query_batch().to_xml()
    assert old in text
    return text.replace(old, new, 1)


#: Texts one step outside the canonical form, each valid: expat reads them.
BOUNDARY = {
    "non-ascii-issuer": batch_with(issuer="pép"),
    "amp-in-a-value": batch_with(RequestContext.simple("a&b", "doc", "read")),
    "carriage-return-reference-in-an-issuer": batch_with(issuer="a\rb"),
    "return-context-1": edited('ReturnContext="true"', 'ReturnContext="1"'),
    "space-inside-a-start-tag": edited("<saml:Issuer>", "<saml:Issuer >"),
    "gt-in-a-value": edited(">alice<", ">al>ice<"),
}


@contextmanager
def expat_calls():
    """The texts handed to the batch decoder's expat pass."""
    calls = []
    real = xacml_profile.parse_envelope

    def spy(xml_text, what):
        calls.append(xml_text)
        return real(xml_text, what)

    with mock.patch.object(xacml_profile, "parse_envelope", spy):
        yield calls


def test_the_writers_escape_what_the_boundary_cells_name():
    assert "&#13;" in BOUNDARY["carriage-return-reference-in-an-issuer"]
    assert "&amp;" in BOUNDARY["amp-in-a-value"]
    assert not BOUNDARY["non-ascii-issuer"].isascii()


@pytest.mark.parametrize("text", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_a_text_outside_the_canonical_form_goes_to_expat_once_whole(text):
    with expat_calls() as calls:
        got = judged(XacmlAuthzDecisionBatchQuery.from_xml, view_batch, wire.read_batch, text)
    assert got is not None
    assert calls == [text]


def test_a_count_the_queries_do_not_match_goes_to_expat_and_is_refused():
    text = edited('Count="2"', 'Count="3"')
    with expat_calls() as calls:
        assert judged(XacmlAuthzDecisionBatchQuery.from_xml, view_batch, wire.read_batch, text) is None
    assert calls == [text]
    with pytest.raises(ValueError, match="batch declares 3 queries, found 2"):
        XacmlAuthzDecisionBatchQuery.from_xml(text)


def test_the_canonical_form_is_read_without_expat():
    with expat_calls() as calls:
        XacmlAuthzDecisionBatchQuery.from_xml(two_query_batch().to_xml())
    assert calls == []


# -- echoed requests ----------------------------------------------------------------

ECHOES = {
    "canonical": RequestContext.simple("alice", "doc", "read"),
    "non-canonical": RequestContext.simple("alïce & co", "doc", "read"),
}


def no_canonical_reader(reader, text):
    return None


@pytest.mark.parametrize("request_", ECHOES.values(), ids=ECHOES.keys())
def test_an_echo_decodes_equal_through_both_paths(request_):
    """A ``ReturnContext=true`` exchange: the PDP echoes the request in
    its statement, and the statement decodes it."""
    network = Network(seed=3)
    pdp = PolicyDecisionPoint("pdp", network)
    pdp.add_local_policy(
        Policy("alice", rules=(permit_rule("alice", subject_resource_action_target("alice", "doc", "read")),))
    )
    client = Component("client", network)
    query = XacmlAuthzDecisionQuery(request_, "client", 1.5, True, "q-1")
    reply = client.call("pdp", QUERY_ACTION, query.to_xml()).payload
    echo_text = reply[reply.index("<Request") : reply.index("</xacml-saml:")]
    canonical = parser.read_canonical(parser.canonical_request, echo_text)
    assert (canonical is not None) is (request_ is ECHOES["canonical"])
    read = XacmlAuthzDecisionStatement.from_xml(reply).request_echo
    with mock.patch.object(parser, "read_canonical", no_canonical_reader):
        by_tree = XacmlAuthzDecisionStatement.from_xml(reply).request_echo
    for category in Category:
        assert read.attributes(category) == by_tree.attributes(category)
        assert read.attributes(category) == request_.attributes(category)
