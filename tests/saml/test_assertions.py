"""Tests for SAML assertions and the XACML profile of SAML."""

import pytest

from repro.saml import (
    Assertion,
    AssertionError_,
    AttributeStatement,
    AuthnStatement,
    AuthzDecisionStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
    sign_assertion,
    validate_assertion,
)
from repro.simnet import Network
from repro.wss import CertificateAuthority, KeyStore, TrustValidator
from repro.xacml import Decision, RequestContext, ResponseContext


@pytest.fixture
def issuer_setup():
    keystore = KeyStore(seed=4)
    ca = CertificateAuthority("Root", keystore)
    pair = keystore.generate("idp")
    cert = ca.issue("idp.example", pair.public, not_before=0.0, lifetime=10_000.0)
    validator = TrustValidator(keystore, [ca])
    return keystore, pair, cert, validator


def make_assertion(audience=None):
    return Assertion(
        issuer="idp.example",
        subject_id="alice",
        issue_instant=10.0,
        not_before=10.0,
        not_on_or_after=310.0,
        statements=(
            AuthnStatement(authn_instant=10.0),
            AttributeStatement(
                attributes=(("role", "engineer"), ("role", "staff"), ("dept", "r&d"))
            ),
            AuthzDecisionStatement(resource="doc", action="read", decision="Permit"),
        ),
        audience=audience,
    )


class TestAssertion:
    def test_attribute_values(self):
        assertion = make_assertion()
        assert assertion.attribute_values("role") == ["engineer", "staff"]
        assert assertion.attribute_values("missing") == []

    def test_decision_for(self):
        assertion = make_assertion()
        assert assertion.decision_for("doc", "read") == "Permit"
        assert assertion.decision_for("doc", "write") is None

    def test_unique_ids(self):
        """An issuer's world mints its assertion ids: unique within the
        world, from ``saml-1`` in every world."""
        world, other = Network(), Network()
        assert [world.mint("saml") for _ in range(3)] == ["saml-1", "saml-2", "saml-3"]
        assert other.mint("saml") == "saml-1"

    def test_xml_contains_statements(self):
        xml = make_assertion().to_xml()
        assert "saml:AttributeStatement" in xml
        assert "saml:AuthzDecisionStatement" in xml
        assert "saml:Conditions" in xml


class TestSignedAssertion:
    def test_sign_validate(self, issuer_setup):
        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(), pair, cert)
        validated = validate_assertion(signed, keystore, validator, at=100.0)
        assert validated.subject_id == "alice"

    def test_issuer_must_match_certificate(self, issuer_setup):
        keystore, pair, cert, _ = issuer_setup
        wrong = Assertion(
            issuer="someone-else",
            subject_id="alice",
            issue_instant=0.0,
            not_before=0.0,
            not_on_or_after=10.0,
        )
        with pytest.raises(ValueError, match="does not match"):
            sign_assertion(wrong, pair, cert)

    def test_expired_rejected(self, issuer_setup):
        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(), pair, cert)
        with pytest.raises(AssertionError_, match="validity window"):
            validate_assertion(signed, keystore, validator, at=400.0)

    def test_not_yet_valid_rejected(self, issuer_setup):
        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(), pair, cert)
        with pytest.raises(AssertionError_):
            validate_assertion(signed, keystore, validator, at=5.0)

    def test_audience_mismatch_rejected(self, issuer_setup):
        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(audience="domain-x"), pair, cert)
        with pytest.raises(AssertionError_, match="audience"):
            validate_assertion(
                signed, keystore, validator, at=100.0, expected_audience="domain-y"
            )

    def test_matching_audience_accepted(self, issuer_setup):
        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(audience="domain-x"), pair, cert)
        validate_assertion(
            signed, keystore, validator, at=100.0, expected_audience="domain-x"
        )

    def test_tampered_assertion_rejected(self, issuer_setup):
        from dataclasses import replace

        keystore, pair, cert, validator = issuer_setup
        signed = sign_assertion(make_assertion(), pair, cert)
        evil = replace(signed.assertion, subject_id="mallory")
        tampered = replace(signed, assertion=evil)
        with pytest.raises(AssertionError_):
            validate_assertion(tampered, keystore, validator, at=100.0)

    def test_untrusted_issuer_rejected(self, issuer_setup):
        keystore, _, _, validator = issuer_setup
        rogue_store = KeyStore(seed=66)
        rogue_ca = CertificateAuthority("Rogue", rogue_store)
        rogue_pair = rogue_store.generate("rogue-idp")
        rogue_cert = rogue_ca.issue(
            "idp.example", rogue_pair.public, not_before=0.0, lifetime=10_000.0
        )
        forged = sign_assertion(make_assertion(), rogue_pair, rogue_cert)
        with pytest.raises(AssertionError_):
            validate_assertion(forged, keystore, validator, at=100.0)


class TestXacmlProfile:
    def test_query_roundtrip(self):
        query = XacmlAuthzDecisionQuery(
            request=RequestContext.simple("alice", "doc", "read"),
            issuer="pep-1",
            issue_instant=3.0,
            return_context=True,
        )
        reparsed = XacmlAuthzDecisionQuery.from_xml(query.to_xml())
        assert reparsed.request.subject_id == "alice"
        assert reparsed.return_context is True
        assert reparsed.query_id == query.query_id

    def test_statement_roundtrip_with_echo(self):
        request = RequestContext.simple("alice", "doc", "read")
        statement = XacmlAuthzDecisionStatement(
            response=ResponseContext.single(Decision.DENY),
            in_response_to="xacmlq-77",
            issuer="pdp-1",
            issue_instant=4.0,
            request_echo=request,
        )
        reparsed = XacmlAuthzDecisionStatement.from_xml(statement.to_xml())
        assert reparsed.response.decision is Decision.DENY
        assert reparsed.in_response_to == "xacmlq-77"
        assert reparsed.request_echo is not None
        assert reparsed.request_echo.subject_id == "alice"

    def test_statement_without_echo(self):
        statement = XacmlAuthzDecisionStatement(
            response=ResponseContext.single(Decision.PERMIT),
            in_response_to="q",
            issuer="pdp",
            issue_instant=0.0,
        )
        reparsed = XacmlAuthzDecisionStatement.from_xml(statement.to_xml())
        assert reparsed.request_echo is None

    def test_bad_xml_rejected(self):
        with pytest.raises(ValueError):
            XacmlAuthzDecisionQuery.from_xml("<garbage/>")
