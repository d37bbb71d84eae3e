"""Web Services substrate: SOAP, WSDL-lite, registry and WS-Security.

Stands in for the paper's "Web Services as the underlying connection
technology": envelopes serialize to real XML (byte-accurate sizes),
services describe themselves for discovery, and WS-Security provides the
message-level protection of Section 3.2.
"""

from .registry import RegistryEntry, RegistryError, ServiceRegistry
from .soap import (
    HeaderBlock,
    SOAP_NS,
    SoapEnvelope,
    SoapFault,
    request_envelope,
    response_envelope,
)
from .ws_security import (
    SECURITY_HEADER,
    SecurityConfig,
    WsSecurityError,
    secure_envelope,
    signer_of,
    verify_envelope,
)
from .wsdl import (
    Operation,
    ServiceDescription,
    capability_service_description,
    pap_description,
    pdp_description,
)

__all__ = [
    "HeaderBlock",
    "Operation",
    "RegistryEntry",
    "RegistryError",
    "SECURITY_HEADER",
    "SOAP_NS",
    "SecurityConfig",
    "ServiceDescription",
    "ServiceRegistry",
    "SoapEnvelope",
    "SoapFault",
    "WsSecurityError",
    "capability_service_description",
    "pap_description",
    "pdp_description",
    "request_envelope",
    "response_envelope",
    "secure_envelope",
    "signer_of",
    "verify_envelope",
]
