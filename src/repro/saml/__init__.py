"""SAML: assertions and the XACML profile of SAML."""

from .assertions import (
    Assertion,
    AssertionError_,
    AttributeStatement,
    AuthnStatement,
    AuthzDecisionStatement,
    SignedAssertion,
    sign_assertion,
    validate_assertion,
)
from .xacml_profile import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)

__all__ = [
    "Assertion",
    "AssertionError_",
    "AttributeStatement",
    "AuthnStatement",
    "AuthzDecisionStatement",
    "SignedAssertion",
    "XacmlAuthzDecisionBatchQuery",
    "XacmlAuthzDecisionBatchStatement",
    "XacmlAuthzDecisionQuery",
    "XacmlAuthzDecisionStatement",
    "sign_assertion",
    "validate_assertion",
]
