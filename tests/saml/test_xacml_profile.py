"""The SAML profile of XACML on the wire: round trips, golden bytes,
and what the decoders refuse.  (A query decoded is judged against the
reference semantics, and against the query written, in
``test_query_decode_reference.py``.)

The XACML contexts inside these messages are pinned by
``tests/xacml/test_codec.py``; here it is the SAML wrappers — header
escaping, the one-pass batch decode and its tiling rule.
"""

import pytest
from hypothesis import given, strategies as st

from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from repro.xacml import (
    Category,
    Decision,
    ParseError,
    RequestContext,
    ResponseContext,
    Status,
    StatusCode,
    string,
)

#: Markup, both quotes, whitespace, non-ASCII.  No carriage return in
#: what becomes element text inside a context (XML reads it back as a
#: line feed); header fields are read by pattern and carry it.
HOSTILE = "<>&\"' \n\tax-:/é☃"
header_text = st.text(alphabet=HOSTILE + "\r", max_size=8)
context_text = st.text(alphabet=HOSTILE, max_size=8)
#: An instant on the wire is a finite number (``wire_number``).
instants = st.floats(allow_nan=False, allow_infinity=False)

requests = st.one_of(
    st.just(RequestContext()),
    st.builds(
        RequestContext.simple,
        context_text,
        context_text,
        context_text,
        subject_attributes=st.dictionaries(
            header_text,
            st.lists(context_text.map(string), min_size=1, max_size=2),
            max_size=2,
        ),
    ),
)
responses = st.builds(
    ResponseContext.single,
    st.sampled_from(list(Decision)),
    status=st.builds(
        Status, code=st.sampled_from(list(StatusCode)), message=context_text
    ),
    resource_id=st.none() | header_text,
)
queries = st.builds(
    XacmlAuthzDecisionQuery,
    request=requests,
    issuer=header_text,
    issue_instant=instants,
    return_context=st.booleans(),
    query_id=header_text,
)
statements = st.builds(
    XacmlAuthzDecisionStatement,
    response=responses,
    in_response_to=header_text,
    issuer=header_text,
    issue_instant=instants,
    request_echo=st.none() | requests,
)


def same_request(left, right):
    if left is None or right is None:
        return left is right
    return all(
        left.attributes(category) == right.attributes(category)
        for category in Category
    )


def same_statement(left, right):
    return same_request(left.request_echo, right.request_echo) and (
        left.response,
        left.in_response_to,
        left.issuer,
        left.issue_instant,
    ) == (right.response, right.in_response_to, right.issuer, right.issue_instant)


class TestRoundTrip:
    @given(statements)
    def test_statement(self, statement):
        assert same_statement(
            XacmlAuthzDecisionStatement.from_xml(statement.to_xml()), statement
        )

    @given(st.lists(statements, max_size=4), header_text, header_text, instants)
    def test_batch_statement(self, inner, in_response_to, issuer, instant):
        batch = XacmlAuthzDecisionBatchStatement(
            tuple(inner), in_response_to, issuer, instant
        )
        parsed = XacmlAuthzDecisionBatchStatement.from_xml(batch.to_xml())
        assert (parsed.in_response_to, parsed.issuer, parsed.issue_instant) == (
            in_response_to,
            issuer,
            instant,
        )
        assert len(parsed.statements) == len(inner)
        assert all(map(same_statement, parsed.statements, inner))


ALICE_REQUEST_XML = (
    "<Request>"
    '<Attributes Category="urn:oasis:names:tc:xacml:1.0:'
    'subject-category:access-subject">'
    '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:subject:subject-id">'
    '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
    "alice</AttributeValue></Attribute></Attributes>"
    '<Attributes Category="urn:oasis:names:tc:xacml:3.0:'
    'attribute-category:resource">'
    '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:resource:resource-id">'
    '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
    "doc</AttributeValue></Attribute></Attributes>"
    '<Attributes Category="urn:oasis:names:tc:xacml:3.0:'
    'attribute-category:action">'
    '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:action:action-id">'
    '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
    "read</AttributeValue></Attribute></Attributes>"
    "</Request>"
)
PERMIT_RESPONSE_XML = (
    "<Response><Result><Decision>Permit</Decision><Status>"
    '<StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok" />'
    "</Status></Result></Response>"
)


def alice():
    return RequestContext.simple("alice", "doc", "read")


def two_query_batch():
    return XacmlAuthzDecisionBatchQuery(
        queries=(
            XacmlAuthzDecisionQuery(alice(), "pep-1", 1.5, query_id="xacmlq-7"),
            XacmlAuthzDecisionQuery(
                RequestContext(), "pep-1", 1.5, True, query_id="xacmlq-8"
            ),
        ),
        issuer="gw.example",
        issue_instant=1.75,
        batch_id="xacmlb-3",
    )


def two_statement_batch():
    permit = ResponseContext.single(Decision.PERMIT)
    return XacmlAuthzDecisionBatchStatement(
        statements=(
            XacmlAuthzDecisionStatement(permit, "xacmlq-7", "pdp-1", 2.0),
            XacmlAuthzDecisionStatement(
                permit, "xacmlq-8", "pdp-1", 2.0, request_echo=alice()
            ),
        ),
        in_response_to="xacmlb-3",
        issuer="pdp-1",
        issue_instant=2.25,
    )


class TestGoldenBytes:
    """A codec edit that shifts ``wire_bytes_per_decision`` fails here."""

    def test_batch_query(self):
        assert two_query_batch().to_xml() == (
            '<xacml-samlp:XACMLAuthzDecisionBatchQuery ID="xacmlb-3" '
            'IssueInstant="1.75" Count="2">'
            "<saml:Issuer>gw.example</saml:Issuer>"
            '<xacml-samlp:XACMLAuthzDecisionQuery ID="xacmlq-7" '
            'IssueInstant="1.5" ReturnContext="false">'
            f"<saml:Issuer>pep-1</saml:Issuer>{ALICE_REQUEST_XML}"
            "</xacml-samlp:XACMLAuthzDecisionQuery>"
            '<xacml-samlp:XACMLAuthzDecisionQuery ID="xacmlq-8" '
            'IssueInstant="1.5" ReturnContext="true">'
            "<saml:Issuer>pep-1</saml:Issuer><Request />"
            "</xacml-samlp:XACMLAuthzDecisionQuery>"
            "</xacml-samlp:XACMLAuthzDecisionBatchQuery>"
        )

    def test_batch_statement(self):
        assert two_statement_batch().to_xml() == (
            "<xacml-saml:XACMLAuthzDecisionBatchStatement "
            'InResponseTo="xacmlb-3" IssueInstant="2.25" Count="2">'
            "<saml:Issuer>pdp-1</saml:Issuer>"
            '<xacml-saml:XACMLAuthzDecisionStatement InResponseTo="xacmlq-7" '
            'IssueInstant="2.0">'
            f"<saml:Issuer>pdp-1</saml:Issuer>{PERMIT_RESPONSE_XML}"
            "</xacml-saml:XACMLAuthzDecisionStatement>"
            '<xacml-saml:XACMLAuthzDecisionStatement InResponseTo="xacmlq-8" '
            'IssueInstant="2.0">'
            f"<saml:Issuer>pdp-1</saml:Issuer>{PERMIT_RESPONSE_XML}"
            f"{ALICE_REQUEST_XML}"
            "</xacml-saml:XACMLAuthzDecisionStatement>"
            "</xacml-saml:XACMLAuthzDecisionBatchStatement>"
        )


class TestHeaderEscaping:
    def test_markup_in_issuer_round_trips(self):
        query = XacmlAuthzDecisionQuery(alice(), "a<b", 0.0)
        assert "<saml:Issuer>a&lt;b</saml:Issuer>" in query.to_xml()
        assert XacmlAuthzDecisionQuery.from_xml(query.to_xml()).issuer == "a<b"

    def test_ampersand_in_issuer_is_written_well_formed(self):
        statement = XacmlAuthzDecisionStatement(
            ResponseContext.single(Decision.DENY), "q", "a&b", 0.0
        )
        assert "<saml:Issuer>a&amp;b</saml:Issuer>" in statement.to_xml()
        parsed = XacmlAuthzDecisionStatement.from_xml(statement.to_xml())
        assert parsed.issuer == "a&b"

    def test_quote_in_identifiers_round_trips(self):
        statement = XacmlAuthzDecisionStatement(
            ResponseContext.single(Decision.DENY), 'q"1', "pdp", 0.0
        )
        parsed = XacmlAuthzDecisionStatement.from_xml(statement.to_xml())
        assert parsed.in_response_to == 'q"1'
        query = XacmlAuthzDecisionQuery(alice(), "pep", 0.0, query_id='q"2')
        assert XacmlAuthzDecisionQuery.from_xml(query.to_xml()).query_id == 'q"2'


class TestEmptyRequest:
    def test_single_query_carries_the_short_form(self):
        query = XacmlAuthzDecisionQuery(RequestContext(), "pep", 0.0)
        assert "<Request />" in query.to_xml()
        parsed = XacmlAuthzDecisionQuery.from_xml(query.to_xml())
        assert same_request(parsed.request, RequestContext())

    def test_batch_with_an_empty_request_decodes_every_query(self):
        parsed = XacmlAuthzDecisionBatchQuery.from_xml(two_query_batch().to_xml())
        assert [q.request.subject_id for q in parsed.queries] == ["alice", None]


QUERY_CLOSE = "</xacml-samlp:XACMLAuthzDecisionQuery>"
STATEMENT_CLOSE = "</xacml-saml:XACMLAuthzDecisionStatement>"


class TestBatchBodiesMustTile:
    """Nothing in a batch envelope goes unparsed."""

    @pytest.mark.parametrize(
        "junk", ["<evil>anything & unbalanced", " ", "<Request />"]
    )
    @pytest.mark.parametrize("where", ["before", "between", "after"])
    def test_batch_query(self, where, junk):
        xml_text = insert(two_query_batch().to_xml(), QUERY_CLOSE, where, junk)
        with pytest.raises(ValueError, match="not an XACMLAuthzDecisionBatchQuery"):
            XacmlAuthzDecisionBatchQuery.from_xml(xml_text)

    @pytest.mark.parametrize(
        "junk", ["<evil>anything & unbalanced", " ", "<Response />"]
    )
    @pytest.mark.parametrize("where", ["before", "between", "after"])
    def test_batch_statement(self, where, junk):
        xml_text = insert(
            two_statement_batch().to_xml(), STATEMENT_CLOSE, where, junk
        )
        with pytest.raises(
            ValueError, match="not an XACMLAuthzDecisionBatchStatement"
        ):
            XacmlAuthzDecisionBatchStatement.from_xml(xml_text)


def insert(batch_xml, inner_close, where, junk):
    """``junk`` before the first, between the two, or after the last
    inner element of a two-element batch."""
    head, first, rest = batch_xml.partition(inner_close)
    if where == "between":
        return head + first + junk + rest
    if where == "after":
        body, last, tail = rest.rpartition(inner_close)
        return head + first + body + last + junk + tail
    issuer_close = "</saml:Issuer>"
    wrapper, issuer, body = batch_xml.partition(issuer_close)
    return wrapper + issuer + junk + body


class TestMalformedWrappers:
    """Every rejection the SAML decoders make themselves, by name."""

    @pytest.mark.parametrize(
        "decoder, xml_text, error",
        [
            pytest.param(
                XacmlAuthzDecisionQuery.from_xml,
                two_statement_batch().statements[0].to_xml(),
                ValueError,
                id="query-wrong-wrapper",
            ),
            pytest.param(
                XacmlAuthzDecisionQuery.from_xml,
                two_query_batch().queries[0].to_xml() + "<trailing />",
                ValueError,
                id="query-trailing-text",
            ),
            pytest.param(
                XacmlAuthzDecisionQuery.from_xml,
                two_query_batch().queries[0].to_xml().replace(
                    "<Request>", "<Request><evil>"
                ),
                ParseError,
                id="query-ill-formed-request",
            ),
            pytest.param(
                XacmlAuthzDecisionStatement.from_xml,
                two_query_batch().queries[0].to_xml(),
                ValueError,
                id="statement-wrong-wrapper",
            ),
            pytest.param(
                XacmlAuthzDecisionStatement.from_xml,
                two_statement_batch().statements[0].to_xml().replace(
                    PERMIT_RESPONSE_XML, "<Response />"
                ),
                ValueError,
                id="statement-empty-response",
            ),
            pytest.param(
                XacmlAuthzDecisionStatement.from_xml,
                two_statement_batch().statements[0].to_xml().replace(
                    "<Decision>Permit</Decision>", ""
                ),
                ParseError,
                id="statement-result-without-decision",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchQuery.from_xml,
                two_statement_batch().to_xml(),
                ValueError,
                id="batch-query-wrong-wrapper",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchQuery.from_xml,
                two_query_batch().to_xml().replace('Count="2"', 'Count="3"'),
                ValueError,
                id="batch-query-count-mismatch",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchQuery.from_xml,
                two_query_batch().to_xml().replace('Count="2"', 'Count="two"'),
                ValueError,
                id="batch-query-count-not-a-number",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchQuery.from_xml,
                two_query_batch().to_xml().replace(
                    "<Request>", "<Request><evil>", 1
                ),
                ParseError,
                id="batch-query-ill-formed-request",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchStatement.from_xml,
                two_query_batch().to_xml(),
                ValueError,
                id="batch-statement-wrong-wrapper",
            ),
            pytest.param(
                XacmlAuthzDecisionBatchStatement.from_xml,
                two_statement_batch().to_xml().replace('Count="2"', 'Count="1"'),
                ValueError,
                id="batch-statement-count-mismatch",
            ),
        ],
    )
    def test_rejected(self, decoder, xml_text, error):
        with pytest.raises(error):
            decoder(xml_text)


class TestNothingAfterTheEnvelope:
    """A line feed after the closing tag is text nobody reads: ``$`` in
    the patterns also matched before a final line feed."""

    @pytest.mark.parametrize(
        "decoder, message",
        [
            (XacmlAuthzDecisionQuery.from_xml, two_query_batch().queries[0]),
            (XacmlAuthzDecisionBatchQuery.from_xml, two_query_batch()),
            (XacmlAuthzDecisionStatement.from_xml, two_statement_batch().statements[1]),
            (XacmlAuthzDecisionBatchStatement.from_xml, two_statement_batch()),
        ],
        ids=["query", "batch-query", "statement", "batch-statement"],
    )
    @pytest.mark.parametrize("trailer", ["\n", " ", "\r\n"])
    def test_refused(self, decoder, message, trailer):
        decoder(message.to_xml())
        with pytest.raises(ValueError):
            decoder(message.to_xml() + trailer)
