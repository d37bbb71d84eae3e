"""Tests for XML serialization/parsing and structural validation.

The request/response context codec is pinned three ways: byte identity
with ``ElementTree`` (the tree builders the direct writers replaced live
here as the oracle), ``parse(serialize(x)) == x``, and golden bytes.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from repro.xacml import (
    Attribute,
    AttributeDesignator,
    AttributeValue,
    Category,
    Condition,
    DataType,
    Decision,
    Designator,
    Obligation,
    ObligationAssignment,
    ParseError,
    Policy,
    PolicyReference,
    PolicySet,
    RequestContext,
    ResponseContext,
    Result,
    Rule,
    Severity,
    Status,
    StatusCode,
    apply_,
    attribute_equals,
    combining,
    deny_rule,
    designator,
    integer,
    is_deployable,
    literal,
    parse_policy,
    parse_request,
    parse_response,
    permit_rule,
    serialize_policy,
    serialize_request,
    serialize_response,
    string,
    subject_resource_action_target,
    validate,
)
from repro.xacml.expressions import AnyOfFunction
from repro.xacml.functions import FUNCTION_PREFIX_1_0


def rich_policy():
    return Policy(
        policy_id="rich",
        description="a policy exercising most XML features",
        version="2.3",
        issuer="dept-admin",
        target=subject_resource_action_target(resource_id="vault"),
        rules=(
            Rule(
                "allow-keyholders",
                Decision.PERMIT,
                target=subject_resource_action_target(action_id="read"),
                condition=attribute_equals(
                    Category.SUBJECT, "urn:test:group", string("keyholders")
                ),
                description="keyholders read",
            ),
            permit_rule(
                "allow-higher",
                condition=Condition(
                    apply_(
                        FUNCTION_PREFIX_1_0 + "integer-greater-than",
                        apply_(
                            FUNCTION_PREFIX_1_0 + "integer-one-and-only",
                            Designator(
                                AttributeDesignator(
                                    Category.SUBJECT,
                                    "urn:test:level",
                                    DataType.INTEGER,
                                    must_be_present=True,
                                )
                            ),
                        ),
                        literal(integer(5)),
                    )
                ),
            ),
            deny_rule("deny-rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        obligations=(
            Obligation(
                "urn:test:notify",
                Decision.PERMIT,
                assignments=(
                    ObligationAssignment("channel", string("audit-log")),
                ),
            ),
        ),
    )


class TestPolicyRoundTrip:
    def test_rich_policy_roundtrip(self):
        policy = rich_policy()
        assert parse_policy(serialize_policy(policy)) == policy

    def test_policy_set_roundtrip(self):
        policy_set = PolicySet(
            policy_set_id="set",
            description="nested",
            children=(
                rich_policy(),
                PolicySet(
                    policy_set_id="inner",
                    children=(
                        Policy(policy_id="leaf", rules=(deny_rule("d"),)),
                    ),
                ),
            ),
            policy_combining=combining.POLICY_FIRST_APPLICABLE,
        )
        assert parse_policy(serialize_policy(policy_set)) == policy_set

    def test_higher_order_roundtrip(self):
        policy = Policy(
            policy_id="ho",
            rules=(
                permit_rule(
                    "any-role",
                    condition=Condition(
                        AnyOfFunction(
                            function_id=FUNCTION_PREFIX_1_0 + "string-equal",
                            value=literal(string("admin")),
                            bag=designator(Category.SUBJECT, "urn:test:roles"),
                        )
                    ),
                ),
            ),
        )
        assert parse_policy(serialize_policy(policy)) == policy

    def test_malformed_xml(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_policy("<Policy")

    def test_wrong_root_element(self):
        with pytest.raises(ParseError, match="expected"):
            parse_policy("<Other/>")

    def test_decision_survives_roundtrip(self):
        policy = rich_policy()
        reparsed = parse_policy(serialize_policy(policy))
        request = RequestContext.simple(
            "anyone",
            "vault",
            "read",
            subject_attributes={"urn:test:group": [string("keyholders")]},
        )
        from repro.xacml import evaluate_element

        assert (
            evaluate_element(policy, request).decision
            == evaluate_element(reparsed, request).decision
            == Decision.PERMIT
        )


class TestContextRoundTrip:
    def test_request_roundtrip(self):
        request = RequestContext.simple(
            "alice",
            "doc",
            "read",
            subject_attributes={"urn:test:role": [string("a"), string("b")]},
        )
        request.add(Category.ENVIRONMENT, Attribute.of("urn:test:tod", integer(42)))
        reparsed = parse_request(serialize_request(request))
        assert reparsed.cache_key() == request.cache_key()
        assert reparsed.subject_id == "alice"

    def test_response_roundtrip(self):
        response = ResponseContext.single(
            Decision.PERMIT,
            obligations=(
                Obligation(
                    "urn:test:ob",
                    Decision.PERMIT,
                    assignments=(ObligationAssignment("k", string("v")),),
                ),
            ),
            resource_id="doc",
        )
        reparsed = parse_response(serialize_response(response))
        assert reparsed.decision is Decision.PERMIT
        assert reparsed.result.obligations[0].assignment("k").value == "v"

    def test_indeterminate_status_roundtrip(self):
        from repro.xacml import Status, StatusCode

        response = ResponseContext.single(
            Decision.INDETERMINATE,
            status=Status(
                code=StatusCode.MISSING_ATTRIBUTE, message="missing role"
            ),
        )
        reparsed = parse_response(serialize_response(response))
        assert reparsed.result.status.code is StatusCode.MISSING_ATTRIBUTE
        assert "missing role" in reparsed.result.status.message

    def test_empty_response_rejected(self):
        with pytest.raises(ParseError):
            parse_response("<Response></Response>")


# -- the context codec, pinned ------------------------------------------------------


def reference_obligations_element(obligations):
    element = ET.Element("Obligations")
    for obligation in obligations:
        ob_el = ET.SubElement(
            element,
            "Obligation",
            {
                "ObligationId": obligation.obligation_id,
                "FulfillOn": obligation.fulfill_on.value,
            },
        )
        for assignment in obligation.assignments:
            assign_el = ET.SubElement(
                ob_el,
                "AttributeAssignment",
                {
                    "AttributeId": assignment.attribute_id,
                    "DataType": assignment.value.data_type.value,
                },
            )
            assign_el.text = assignment.value.lexical()
    return element


def reference_request_xml(request):
    """``serialize_request`` as it was: build the tree, ``ET.tostring`` it."""
    element = ET.Element("Request")
    for category in Category:
        attributes = request.attributes(category)
        if not attributes:
            continue
        cat_el = ET.SubElement(element, "Attributes", {"Category": category.value})
        for attribute in attributes:
            attrib = {"AttributeId": attribute.attribute_id}
            if attribute.issuer is not None:
                attrib["Issuer"] = attribute.issuer
            attr_el = ET.SubElement(cat_el, "Attribute", attrib)
            for value in attribute.values:
                value_el = ET.SubElement(
                    attr_el, "AttributeValue", {"DataType": value.data_type.value}
                )
                value_el.text = value.lexical()
    return ET.tostring(element, encoding="unicode")


def reference_response_xml(response):
    """``serialize_response`` as it was."""
    element = ET.Element("Response")
    for result in response.results:
        attrib = {}
        if result.resource_id is not None:
            attrib["ResourceId"] = result.resource_id
        result_el = ET.SubElement(element, "Result", attrib)
        decision_el = ET.SubElement(result_el, "Decision")
        decision_el.text = result.decision.value
        status_el = ET.SubElement(result_el, "Status")
        ET.SubElement(status_el, "StatusCode", {"Value": result.status.code.value})
        if result.status.message:
            msg_el = ET.SubElement(status_el, "StatusMessage")
            msg_el.text = result.status.message
        if result.obligations:
            result_el.append(reference_obligations_element(result.obligations))
    return ET.tostring(element, encoding="unicode")


#: Markup characters, both quotes, the whitespace ``ElementTree`` writes
#: as character references inside attributes, non-ASCII and a non-BMP
#: character.  A carriage return is the one character the XML form does
#: not carry in element *text* (a parser reads it as a line feed), so
#: the round-trip properties draw text without it; byte identity holds
#: with it too.
HOSTILE = "<>&\"' \r\n\tax-:/é☃𝄞"
hostile_text = st.text(alphabet=HOSTILE, max_size=8)
element_text = st.text(alphabet=HOSTILE.replace("\r", ""), max_size=8)
finite_floats = st.floats(allow_nan=False)


def attribute_values(text):
    return st.one_of(
        st.builds(
            AttributeValue,
            st.sampled_from(
                [
                    DataType.STRING,
                    DataType.ANY_URI,
                    DataType.RFC822_NAME,
                    DataType.X500_NAME,
                ]
            ),
            text,
        ),
        st.builds(AttributeValue, st.just(DataType.BOOLEAN), st.booleans()),
        st.builds(AttributeValue, st.just(DataType.INTEGER), st.integers()),
        st.builds(
            AttributeValue,
            st.sampled_from([DataType.DOUBLE, DataType.TIME, DataType.DATE_TIME]),
            finite_floats,
        ),
    )


def request_of(mapping):
    request = RequestContext()
    for category, attributes in mapping.items():
        for attribute in attributes:
            request.add(category, attribute)
    return request


def request_contexts(text):
    attributes = st.builds(
        Attribute,
        attribute_id=hostile_text,
        values=st.lists(attribute_values(text), min_size=1, max_size=3).map(tuple),
        issuer=st.none() | hostile_text,
    )
    return st.dictionaries(
        st.sampled_from(list(Category)), st.lists(attributes, max_size=3)
    ).map(request_of)


def response_contexts(text, min_results=0):
    obligations = st.builds(
        Obligation,
        obligation_id=hostile_text,
        fulfill_on=st.sampled_from([Decision.PERMIT, Decision.DENY]),
        assignments=st.lists(
            st.builds(ObligationAssignment, hostile_text, attribute_values(text)),
            max_size=2,
        ).map(tuple),
    )
    results = st.builds(
        Result,
        decision=st.sampled_from(list(Decision)),
        status=st.builds(
            Status, code=st.sampled_from(list(StatusCode)), message=text
        ),
        obligations=st.lists(obligations, max_size=2).map(tuple),
        resource_id=st.none() | hostile_text,
    )
    return st.builds(
        ResponseContext,
        results=st.lists(results, min_size=min_results, max_size=3).map(tuple),
    )


class TestContextCodecPinned:
    @given(request_contexts(hostile_text))
    def test_request_bytes_are_elementtree_bytes(self, request):
        assert serialize_request(request) == reference_request_xml(request)

    @given(response_contexts(hostile_text))
    def test_response_bytes_are_elementtree_bytes(self, response):
        assert serialize_response(response) == reference_response_xml(response)

    # An attribute has at least one value by construction; the parser
    # refuses a response without results (TestMalformedContexts), so the
    # response round trip draws at least one.

    @given(request_contexts(element_text))
    def test_request_round_trip(self, request):
        reparsed = parse_request(serialize_request(request))
        for category in Category:
            assert reparsed.attributes(category) == request.attributes(category)

    @given(response_contexts(element_text, min_results=1))
    def test_response_round_trip(self, response):
        assert parse_response(serialize_response(response)) == response

    def test_golden_request_bytes(self):
        request = RequestContext.simple(
            "alice",
            "doc<1>",
            "read",
            subject_attributes={"urn:test:role": [string("a&b"), string("")]},
        )
        request.add(Category.ENVIRONMENT, Attribute.of("urn:test:tod", integer(42)))
        request.add(
            Category.SUBJECT,
            Attribute.of("urn:test:\"q\"", string("é"), issuer="idp\n1"),
        )
        assert serialize_request(request) == (
            "<Request>"
            '<Attributes Category="urn:oasis:names:tc:xacml:1.0:'
            'subject-category:access-subject">'
            '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:subject:'
            'subject-id">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
            "alice</AttributeValue></Attribute>"
            '<Attribute AttributeId="urn:test:role">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
            "a&amp;b</AttributeValue>"
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string" />'
            "</Attribute>"
            '<Attribute AttributeId="urn:test:&quot;q&quot;" Issuer="idp&#10;1">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
            "é</AttributeValue></Attribute>"
            "</Attributes>"
            '<Attributes Category="urn:oasis:names:tc:xacml:3.0:'
            'attribute-category:resource">'
            '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:resource:'
            'resource-id">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
            "doc&lt;1&gt;</AttributeValue></Attribute>"
            "</Attributes>"
            '<Attributes Category="urn:oasis:names:tc:xacml:3.0:'
            'attribute-category:action">'
            '<Attribute AttributeId="urn:oasis:names:tc:xacml:1.0:action:'
            'action-id">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#string">'
            "read</AttributeValue></Attribute>"
            "</Attributes>"
            '<Attributes Category="urn:oasis:names:tc:xacml:3.0:'
            'attribute-category:environment">'
            '<Attribute AttributeId="urn:test:tod">'
            '<AttributeValue DataType="http://www.w3.org/2001/XMLSchema#integer">'
            "42</AttributeValue></Attribute>"
            "</Attributes>"
            "</Request>"
        )
        assert serialize_request(RequestContext()) == "<Request />"

    def test_golden_response_bytes(self):
        response = ResponseContext(
            results=(
                Result(decision=Decision.PERMIT),
                Result(
                    decision=Decision.INDETERMINATE,
                    status=Status(StatusCode.MISSING_ATTRIBUTE, "no <role>"),
                    resource_id='doc"1"',
                ),
                Result(
                    decision=Decision.DENY,
                    obligations=(
                        Obligation(
                            "urn:test:notify",
                            Decision.DENY,
                            (ObligationAssignment("channel", string("audit")),),
                        ),
                    ),
                ),
            )
        )
        assert serialize_response(response) == (
            "<Response>"
            "<Result><Decision>Permit</Decision><Status>"
            '<StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok" />'
            "</Status></Result>"
            '<Result ResourceId="doc&quot;1&quot;">'
            "<Decision>Indeterminate</Decision><Status>"
            '<StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:'
            'missing-attribute" />'
            "<StatusMessage>no &lt;role&gt;</StatusMessage></Status></Result>"
            "<Result><Decision>Deny</Decision><Status>"
            '<StatusCode Value="urn:oasis:names:tc:xacml:1.0:status:ok" />'
            "</Status><Obligations>"
            '<Obligation ObligationId="urn:test:notify" FulfillOn="Deny">'
            '<AttributeAssignment AttributeId="channel" '
            'DataType="http://www.w3.org/2001/XMLSchema#string">audit'
            "</AttributeAssignment></Obligation></Obligations></Result>"
            "</Response>"
        )
        assert serialize_response(ResponseContext(results=())) == "<Response />"


STRING_URI = DataType.STRING.value
SUBJECT_URI = Category.SUBJECT.value
GOOD_VALUE = f'<AttributeValue DataType="{STRING_URI}">v</AttributeValue>'
GOOD_STATUS = (
    f'<Status><StatusCode Value="{StatusCode.OK.value}" /></Status>'
)


def request_with(attributes_xml):
    return f"<Request>{attributes_xml}</Request>"


def subject_attribute(inner, attribute='AttributeId="a"'):
    return request_with(
        f'<Attributes Category="{SUBJECT_URI}">'
        f"<Attribute {attribute}>{inner}</Attribute></Attributes>"
    )


def result_with(inner):
    return f"<Response><Result>{inner}</Result></Response>"


def obligation_with(inner, attributes='ObligationId="o" FulfillOn="Permit"'):
    return result_with(
        f"<Decision>Permit</Decision>{GOOD_STATUS}<Obligations>"
        f"<Obligation {attributes}>{inner}</Obligation></Obligations>"
    )


class TestMalformedContexts:
    """Every rejection the context parsers make, by name."""

    @pytest.mark.parametrize(
        "xml_text, error",
        [
            pytest.param("<Request", ParseError, id="ill-formed"),
            pytest.param(
                request_with("<evil>a & b"), ParseError, id="unbalanced"
            ),
            pytest.param("<Response />", ParseError, id="wrong-root"),
            pytest.param(
                request_with("<Attributes />"), ParseError, id="missing-category"
            ),
            pytest.param(
                request_with('<Attributes Category="urn:bogus" />'),
                ParseError,
                id="unknown-category",
            ),
            pytest.param(
                subject_attribute(GOOD_VALUE, attribute=""),
                ParseError,
                id="missing-attribute-id",
            ),
            pytest.param(
                subject_attribute(""), ParseError, id="attribute-without-values"
            ),
            pytest.param(
                subject_attribute("<AttributeValue>v</AttributeValue>"),
                ParseError,
                id="missing-data-type",
            ),
            pytest.param(
                subject_attribute(
                    '<AttributeValue DataType="urn:bogus">v</AttributeValue>'
                ),
                ParseError,
                id="unknown-data-type",
            ),
            pytest.param(
                subject_attribute(
                    f'<AttributeValue DataType="{DataType.INTEGER.value}">'
                    "x</AttributeValue>"
                ),
                ValueError,
                id="bad-lexical-value",
            ),
        ],
    )
    def test_request_rejected(self, xml_text, error):
        with pytest.raises(error):
            parse_request(xml_text)

    @pytest.mark.parametrize(
        "xml_text, error",
        [
            pytest.param("<Response><Result>", ParseError, id="ill-formed"),
            pytest.param("<Request />", ParseError, id="wrong-root"),
            pytest.param("<Response />", ParseError, id="empty-response"),
            pytest.param(
                result_with(GOOD_STATUS), ParseError, id="result-without-decision"
            ),
            pytest.param(
                result_with(f"<Decision />{GOOD_STATUS}"),
                ParseError,
                id="empty-decision",
            ),
            pytest.param(
                result_with("<Decision>Maybe</Decision>"),
                ParseError,
                id="unknown-decision",
            ),
            pytest.param(
                result_with(
                    "<Decision>Permit</Decision>"
                    '<Status><StatusCode Value="urn:bogus" /></Status>'
                ),
                ParseError,
                id="unknown-status-code",
            ),
            pytest.param(
                obligation_with("", attributes='FulfillOn="Permit"'),
                ParseError,
                id="obligation-without-id",
            ),
            pytest.param(
                obligation_with("", attributes='ObligationId="o"'),
                ParseError,
                id="obligation-without-fulfill-on",
            ),
            pytest.param(
                obligation_with(
                    "", attributes='ObligationId="o" FulfillOn="NotApplicable"'
                ),
                ValueError,
                id="obligation-on-a-non-decision",
            ),
            pytest.param(
                obligation_with('<AttributeAssignment AttributeId="k" />'),
                ParseError,
                id="assignment-without-data-type",
            ),
            pytest.param(
                obligation_with(
                    '<AttributeAssignment AttributeId="k" DataType="urn:bogus" />'
                ),
                ValueError,
                id="assignment-unknown-data-type",
            ),
        ],
    )
    def test_response_rejected(self, xml_text, error):
        with pytest.raises(error):
            parse_response(xml_text)

    def test_unknown_children_are_skipped_not_rejected(self):
        # The other edge of the accepted set, equally pinned: the
        # parsers read the children they know and pass over the rest.
        request = parse_request(
            request_with(
                "<Extension />"
                f'<Attributes Category="{SUBJECT_URI}"><Extension />'
                f'<Attribute AttributeId="a"><Extension />{GOOD_VALUE}'
                "</Attribute></Attributes>"
            )
        )
        assert request.first_value(Category.SUBJECT, "a") == string("v")
        response = parse_response(
            "<Response><Extension /><Result><Extension />"
            "<Decision>Deny</Decision></Result></Response>"
        )
        assert response == ResponseContext.single(Decision.DENY)


class TestValidation:
    def test_clean_policy_deployable(self):
        assert is_deployable(rich_policy())

    def test_unknown_function_flagged(self):
        policy = Policy(
            policy_id="bad",
            rules=(
                permit_rule(
                    "r",
                    condition=Condition(apply_("urn:bogus:function")),
                ),
            ),
        )
        issues = validate(policy)
        assert any(
            issue.severity is Severity.ERROR and "unknown function" in issue.message
            for issue in issues
        )
        assert not is_deployable(policy)

    def test_empty_policy_warns(self):
        policy = Policy(policy_id="empty", rules=())
        issues = validate(policy)
        assert any(issue.severity is Severity.WARNING for issue in issues)
        assert is_deployable(policy)  # warnings do not block deployment

    def test_unreachable_rule_after_unconditional_first_applicable(self):
        policy = Policy(
            policy_id="shadowed",
            rules=(permit_rule("catch-all"), deny_rule("never-reached")),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        issues = validate(policy)
        assert any("unreachable" in issue.message for issue in issues)

    def test_type_mismatch_in_match_flagged(self):
        from repro.xacml import AttributeDesignator, Match, Target, AnyOf, AllOf

        bad_match = Match(
            match_function=FUNCTION_PREFIX_1_0 + "string-equal",
            value=integer(1),
            designator=AttributeDesignator(
                category=Category.SUBJECT,
                attribute_id="urn:test:x",
                data_type=DataType.STRING,
            ),
        )
        policy = Policy(
            policy_id="mismatch",
            rules=(
                permit_rule(
                    "r",
                    target=Target(
                        any_ofs=(AnyOf(all_ofs=(AllOf(matches=(bad_match,)),)),)
                    ),
                ),
            ),
        )
        issues = validate(policy)
        assert any("data types differ" in issue.message for issue in issues)


def broken_policy(policy_id="broken"):
    return Policy(
        policy_id=policy_id,
        rules=(
            permit_rule("r", condition=Condition(apply_("urn:bogus:function"))),
        ),
    )


class TestValidationComposability:
    """validate() follows PolicyReference children through a resolver."""

    def referencing_set(self):
        return PolicySet(
            policy_set_id="outer",
            children=(PolicyReference("target-id"),),
        )

    def test_without_resolver_references_only_warn(self):
        issues = validate(self.referencing_set())
        assert [issue.severity for issue in issues] == [Severity.WARNING]
        assert "evaluation time" in issues[0].message

    def test_resolver_validates_through_references(self):
        catalog = {"target-id": broken_policy()}
        issues = validate(self.referencing_set(), resolver=catalog.get)
        assert any(
            issue.severity is Severity.ERROR
            and "unknown function" in issue.message
            for issue in issues
        )

    def test_resolver_with_clean_reference_has_no_errors(self):
        catalog = {
            "target-id": Policy(policy_id="fine", rules=(permit_rule("r"),))
        }
        issues = validate(self.referencing_set(), resolver=catalog.get)
        assert not any(issue.severity is Severity.ERROR for issue in issues)

    def test_unresolvable_reference_is_an_error(self):
        issues = validate(self.referencing_set(), resolver={}.get)
        assert any(
            issue.severity is Severity.ERROR
            and "unresolvable policy reference" in issue.message
            for issue in issues
        )

    def test_cyclic_reference_is_an_error(self):
        catalog = {}
        cyclic = PolicySet(
            policy_set_id="cyclic",
            children=(PolicyReference("cyclic"),),
        )
        catalog["cyclic"] = cyclic
        issues = validate(cyclic, resolver=catalog.get)
        assert any(
            issue.severity is Severity.ERROR
            and "cyclic policy reference" in issue.message
            for issue in issues
        )

    def test_mutual_cycle_is_detected(self):
        catalog = {}
        catalog["a"] = PolicySet(
            policy_set_id="a", children=(PolicyReference("b"),)
        )
        catalog["b"] = PolicySet(
            policy_set_id="b", children=(PolicyReference("a"),)
        )
        issues = validate(catalog["a"], resolver=catalog.get)
        assert any("cyclic" in issue.message for issue in issues)

    def test_warnings_do_not_block_deployment(self):
        empty = Policy(policy_id="empty", rules=())
        assert validate(empty)  # it warns ...
        assert is_deployable(empty)  # ... and only errors block
