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
from typing import Iterable, Optional

from ..wss.keys import Ciphertext, KeyPair, KeyStore, PublicKey
from ..wss.pki import Certificate, CertificateError, TrustValidator
from ..wss.xmlenc import EncryptedDocument, decrypt_document
from .soap import SoapEnvelope

SECURITY_HEADER = "wsse:Security"

_DSIG_OPEN = '<ds:Signature xmlns:ds="http://www.w3.org/2000/09/xmldsig#">'
_ENCRYPTED_BODY = "<wsse:EncryptedBody/>"
_TOKEN_FIELDS = (
    "subject", "issuer", "serial", "keyId", "notBefore", "notAfter", "certSig", "extensions",
)  # fmt: skip


def _token_text(values: Iterable[object]) -> str:
    """A ``BinarySecurityToken`` holding ``values``, one per field, in
    :data:`_TOKEN_FIELDS` order (or a pattern, given patterns)."""
    fields = " ".join(f'{name}="{value}"' for name, value in zip(_TOKEN_FIELDS, values))
    return f"<wsse:BinarySecurityToken {fields}/>"


# What a receiver reads out of the header and the encrypted body, compiled
# once (the patterns mirror what :func:`secure_envelope` writes).
_CERT_TOKEN = re.compile(_token_text(['([^"]*)'] * len(_TOKEN_FIELDS)))
#: The whole signed header, read in one anchored pass in the order
#: :func:`secure_envelope` writes it: the token text, the digest, the
#: signature value, then the encrypted-body marker when the body is
#: encrypted.  Anything before, between or after them fails the match.
_SIGNED_HEADER = re.compile(
    "(" + _token_text(['[^"]*'] * len(_TOKEN_FIELDS)) + ")"
    + re.escape(_DSIG_OPEN)
    + '<ds:SignedInfo><ds:Reference URI="#body">'
    "<ds:DigestValue>([0-9a-f]+)</ds:DigestValue></ds:Reference></ds:SignedInfo>"
    "<ds:SignatureValue>([0-9a-f]+)</ds:SignatureValue></ds:Signature>"
    f"({_ENCRYPTED_BODY})?"
)
_KEY_NAME = re.compile(r"<ds:KeyName>([^<]*)</ds:KeyName>")
_CIPHER_VALUE = re.compile(
    r'<xenc:CipherValue nonce="([^"]*)">([^<]*)</xenc:CipherValue>'
)

#: Distinct tokens :func:`_certificate_of` and :func:`_token_of` each
#: remember: one per signing identity a process hears from or signs as.
TOKEN_MEMO_SIZE = 1024


class WsSecurityError(Exception):
    """Raised when inbound security processing fails."""


@dataclass(frozen=True)
class SecurityConfig:
    """What protection to require on receive."""

    require_signature: bool = True


def _bound_content(action: str, body_xml: str) -> bytes:
    """The byte string signatures cover: body bound to the SOAP action."""
    return f'<bound action="{action}">{body_xml}</bound>'.encode("utf-8")


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _token_of(certificate: Certificate) -> str:
    """The ``BinarySecurityToken`` text that carries ``certificate``;
    one text per certificate, however many envelopes it signs.

    The form ROADMAP direction 1's lint note allows, the inverse of
    :func:`_certificate_of`: an ``lru_cache`` with a constant bound on a
    pure function of an immutable argument (a frozen
    :class:`Certificate` of frozen parts) returning an immutable value
    (a string).  It maps a certificate to its text and mints nothing, so
    two worlds in one process cannot perturb each other through it.
    Writing the text is all it saves: every envelope is still digested
    and signed on its own.
    """
    return _token_text(
        (
            certificate.subject,
            certificate.issuer,
            certificate.serial,
            certificate.public_key.key_id,
            certificate.not_before,
            certificate.not_after,
            certificate.signature,
            ";".join(f"{k}={v}" for k, v in certificate.extensions),
        )
    )


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _certificate_of(token: str) -> Certificate:
    """The certificate a ``BinarySecurityToken``'s text spells out;
    equal texts share one parsed result.

    The form ROADMAP direction 1's lint note allows, beside
    ``xacml.parser.parse_response``: an ``lru_cache`` with a constant
    bound on a pure function of an immutable argument (the token's
    text) returning an immutable value (a frozen :class:`Certificate`
    of frozen parts).  It maps a text to the value of that text and
    mints nothing, so two worlds in one process cannot perturb each
    other through it, and a token that does not parse raises on every
    call.  Parsing is all it saves: what the certificate *claims* is
    checked by :func:`verify_envelope` and the trust validator on every
    message.
    """
    match = _CERT_TOKEN.fullmatch(token)
    if match is None:
        raise ValueError("not a BinarySecurityToken")
    subject, issuer, serial, key_id, not_before, not_after, signature, ext = (
        match.groups()
    )
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
            for pair in ext.split(";")
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
        f"{_token_of(certificate)}{_DSIG_OPEN}"
        f'<ds:SignedInfo><ds:Reference URI="#body">'
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
        security_content += _ENCRYPTED_BODY
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
        if config.require_signature:
            raise WsSecurityError(
                f"unprotected message for action {envelope.action!r} rejected"
            )
        return envelope
    header_xml = header.content_xml
    signed = None
    if config.require_signature:
        signed = _SIGNED_HEADER.fullmatch(header_xml)
        if signed is None:
            raise WsSecurityError(
                "security header is not a BinarySecurityToken followed by "
                "a signature block"
            )
        is_encrypted = signed.group(4) is not None
    else:
        is_encrypted = _ENCRYPTED_BODY in header_xml
    body_xml = envelope.body_xml
    if is_encrypted:
        if decrypt_with is None:
            raise WsSecurityError("encrypted message but no decryption key")
        body_xml = _decrypt_body(envelope.body_xml, decrypt_with)
    signer_subject: Optional[str] = None
    if signed is not None:
        token, claimed_digest, signature_value = signed.group(1, 2, 3)
        try:
            certificate = _certificate_of(token)
        except ValueError as exc:  # a serial or validity bound that is no number
            raise WsSecurityError(f"malformed BinarySecurityToken: {exc}") from exc
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
        Ciphertext(recipient=key_match.group(1), nonce=nonce, body=body)
    )
    try:
        return decrypt_document(encrypted, keypair)
    except Exception as exc:
        raise WsSecurityError(f"decryption failed: {exc}") from exc
