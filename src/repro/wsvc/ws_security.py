"""WS-Security header processing for SOAP envelopes.

Implements the message-level protection the paper requires (Section 3.2):
envelopes are signed (authenticity, integrity) and optionally have their
body encrypted (confidentiality) by inserting a ``wsse:Security`` header.
Everything a receiver needs travels *in the XML* — certificate fields in a
``BinarySecurityToken``, digest and signature value in a ``ds:Signature``
block — so protection survives the trip across the simulated network and
its cost is visible in ``envelope.wire_size`` (experiment E7): the size
penalty the paper cites from Juric et al. for WS-Security-protected
messages.

Ordering is sign-then-encrypt (WS-Security 1.1 practice): receivers
decrypt first, then verify the signature over the recovered body.
"""

from __future__ import annotations

import base64
import binascii
import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Optional

from ..wss.keys import Ciphertext, KeyPair, KeyStore, PublicKey
from ..wss.pki import Certificate, CertificateError, TrustValidator
from ..wss.xmlenc import EncryptedDocument, decrypt_document
from .soap import SoapEnvelope

SECURITY_HEADER = "wsse:Security"

# What a receiver reads out of the header and the encrypted body, compiled
# once (the patterns mirror what :func:`secure_envelope` writes).
_CERT_TOKEN = re.compile(
    r'<wsse:BinarySecurityToken subject="([^"]*)" issuer="([^"]*)" '
    r'serial="([^"]*)" keyId="([^"]*)" notBefore="([^"]*)" '
    r'notAfter="([^"]*)" certSig="([^"]*)" extensions="([^"]*)"/>'
)
_SIGNATURE_BLOCK = re.compile(
    r"<ds:DigestValue>([0-9a-f]+)</ds:DigestValue>.*?"
    r"<ds:SignatureValue>([0-9a-f]+)</ds:SignatureValue>",
    re.DOTALL,
)
_KEY_NAME = re.compile(r"<ds:KeyName>([^<]*)</ds:KeyName>")
_CIPHER_VALUE = re.compile(
    r'<xenc:CipherValue nonce="([^"]*)">([^<]*)</xenc:CipherValue>'
)

#: Distinct tokens :func:`_certificate_of` remembers: one per signing
#: identity a process hears from.
TOKEN_MEMO_SIZE = 1024


class WsSecurityError(Exception):
    """Raised when inbound security processing fails."""


@dataclass(frozen=True)
class SecurityConfig:
    """What protection to apply on send / require on receive."""

    sign: bool = True
    encrypt: bool = False
    require_signature: bool = True
    require_encryption: bool = False


def _bound_content(action: str, body_xml: str) -> bytes:
    """The byte string signatures cover: body bound to the SOAP action."""
    return f'<bound action="{action}">{body_xml}</bound>'.encode("utf-8")


def _cert_token_xml(certificate: Certificate) -> str:
    ext = ";".join(f"{k}={v}" for k, v in certificate.extensions)
    return (
        f'<wsse:BinarySecurityToken subject="{certificate.subject}" '
        f'issuer="{certificate.issuer}" serial="{certificate.serial}" '
        f'keyId="{certificate.public_key.key_id}" '
        f'notBefore="{certificate.not_before}" notAfter="{certificate.not_after}" '
        f'certSig="{certificate.signature}" extensions="{ext}"/>'
    )


def _parse_cert_token(header_xml: str) -> Certificate:
    match = _CERT_TOKEN.search(header_xml)
    if match is None:
        raise WsSecurityError("security header lacks a BinarySecurityToken")
    try:
        return _certificate_of(*match.groups())
    except ValueError as exc:  # a serial or validity bound that is no number
        raise WsSecurityError(f"malformed BinarySecurityToken: {exc}") from exc


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _certificate_of(
    subject: str,
    issuer: str,
    serial: str,
    key_id: str,
    not_before: str,
    not_after: str,
    signature: str,
    extensions: str,
) -> Certificate:
    """The certificate a ``BinarySecurityToken``'s fields spell out;
    equal texts share one parsed result.

    The form ROADMAP direction 1's lint note allows, beside
    ``xacml.parser.parse_response``: an ``lru_cache`` with a constant
    bound on a pure function of immutable arguments (the token's field
    texts) returning an immutable value (a frozen :class:`Certificate`
    of frozen parts).  It maps texts to the value of those texts and
    mints nothing, so two worlds in one process cannot perturb each
    other through it, and a token that does not parse raises on every
    call.  Parsing is all it saves: what the certificate *claims* is
    checked by :func:`verify_envelope` and the trust validator on every
    message.
    """
    return Certificate(
        subject=subject,
        issuer=issuer,
        serial=int(serial),
        public_key=PublicKey(key_id),
        not_before=float(not_before),
        not_after=float(not_after),
        signature=signature,
        extensions=tuple(
            tuple(pair.split("=", 1))  # type: ignore[misc]
            for pair in extensions.split(";")
            if "=" in pair
        ),
    )


def secure_envelope(
    envelope: SoapEnvelope,
    keypair: KeyPair,
    certificate: Certificate,
    keystore: KeyStore,
    encrypt_to: Optional[PublicKey] = None,
) -> SoapEnvelope:
    """Return a copy of ``envelope`` with WS-Security protection applied."""
    if certificate.public_key.key_id != keypair.public.key_id:
        raise ValueError("certificate does not match signing key")
    content = _bound_content(envelope.action, envelope.body_xml)
    digest = hashlib.sha256(content).hexdigest()
    signature_value = keypair.sign(digest.encode("ascii"))
    security_content = (
        _cert_token_xml(certificate)
        + f'<ds:Signature xmlns:ds="http://www.w3.org/2000/09/xmldsig#">'
        f"<ds:SignedInfo><ds:Reference URI=\"#body\">"
        f"<ds:DigestValue>{digest}</ds:DigestValue></ds:Reference>"
        f"</ds:SignedInfo>"
        f"<ds:SignatureValue>{signature_value}</ds:SignatureValue>"
        f"</ds:Signature>"
    )
    body_xml = envelope.body_xml
    if encrypt_to is not None:
        ciphertext = keystore.encrypt_to(
            encrypt_to, envelope.body_xml.encode("utf-8")
        )
        body_b64 = base64.b64encode(ciphertext.body).decode("ascii")
        nonce_b64 = base64.b64encode(ciphertext.nonce).decode("ascii")
        body_xml = (
            f'<xenc:EncryptedData xmlns:xenc="http://www.w3.org/2001/04/xmlenc#">'
            f'<ds:KeyInfo xmlns:ds="http://www.w3.org/2000/09/xmldsig#">'
            f"<ds:KeyName>{encrypt_to.key_id}</ds:KeyName></ds:KeyInfo>"
            f'<xenc:CipherData><xenc:CipherValue nonce="{nonce_b64}">'
            f"{body_b64}</xenc:CipherValue></xenc:CipherData>"
            f"</xenc:EncryptedData>"
        )
        security_content += "<wsse:EncryptedBody/>"
    protected = SoapEnvelope(
        action=envelope.action,
        body_xml=body_xml,
        headers=list(envelope.headers),
    )
    protected.add_header(SECURITY_HEADER, security_content, must_understand=True)
    return protected


def verify_envelope(
    envelope: SoapEnvelope,
    keystore: KeyStore,
    validator: Optional[TrustValidator] = None,
    decrypt_with: Optional[KeyPair] = None,
    config: SecurityConfig = SecurityConfig(),
    at: float = 0.0,
) -> SoapEnvelope:
    """Validate inbound protection and return the cleartext envelope.

    Raises:
        WsSecurityError: missing/invalid signature or encryption, failed
            decryption, or an untrusted signer certificate.
    """
    header = envelope.header(SECURITY_HEADER)
    if header is None:
        if config.require_signature or config.require_encryption:
            raise WsSecurityError(
                f"unprotected message for action {envelope.action!r} rejected"
            )
        return envelope
    header_xml = header.content_xml
    is_encrypted = "<wsse:EncryptedBody/>" in header_xml
    if config.require_encryption and not is_encrypted:
        raise WsSecurityError(
            f"cleartext message for action {envelope.action!r} rejected"
        )
    body_xml = envelope.body_xml
    if is_encrypted:
        if decrypt_with is None:
            raise WsSecurityError("encrypted message but no decryption key")
        body_xml = _decrypt_body(envelope.body_xml, decrypt_with)
    signer_subject: Optional[str] = None
    if config.require_signature:
        certificate = _parse_cert_token(header_xml)
        sig_match = _SIGNATURE_BLOCK.search(header_xml)
        if sig_match is None:
            raise WsSecurityError("security header lacks a signature block")
        claimed_digest, signature_value = sig_match.group(1), sig_match.group(2)
        actual_digest = hashlib.sha256(
            _bound_content(envelope.action, body_xml)
        ).hexdigest()
        if actual_digest != claimed_digest:
            raise WsSecurityError(
                f"digest mismatch on action {envelope.action!r}: "
                "body modified in transit"
            )
        if not keystore.verify(
            certificate.public_key, claimed_digest.encode("ascii"), signature_value
        ):
            raise WsSecurityError(
                f"invalid signature from {certificate.subject!r}"
            )
        if validator is not None:
            try:
                validator.validate(certificate, at=at)
            except CertificateError as exc:
                raise WsSecurityError(
                    f"untrusted signer {certificate.subject!r}: {exc}"
                ) from exc
        signer_subject = certificate.subject
    clear = SoapEnvelope(
        action=envelope.action,
        body_xml=body_xml,
        headers=[b for b in envelope.headers if b.name != SECURITY_HEADER],
    )
    clear._signer_subject = signer_subject  # type: ignore[attr-defined]
    return clear


def signer_of(envelope: SoapEnvelope) -> Optional[str]:
    """Subject name of the verified signer, set by :func:`verify_envelope`."""
    return getattr(envelope, "_signer_subject", None)


def _decrypt_body(body_xml: str, keypair: KeyPair) -> str:
    key_match = _KEY_NAME.search(body_xml)
    value_match = _CIPHER_VALUE.search(body_xml)
    if key_match is None or value_match is None:
        raise WsSecurityError("body is not valid xenc:EncryptedData")
    try:
        nonce = base64.b64decode(value_match.group(1))
        body = base64.b64decode(value_match.group(2))
    except binascii.Error as exc:
        raise WsSecurityError(f"malformed xenc:CipherValue: {exc}") from exc
    encrypted = EncryptedDocument(
        ciphertext=Ciphertext(
            recipient=key_match.group(1), nonce=nonce, body=body
        ),
        recipient_hint=key_match.group(1)[:16],
    )
    try:
        return decrypt_document(encrypted, keypair)
    except Exception as exc:
        raise WsSecurityError(f"decryption failed: {exc}") from exc
