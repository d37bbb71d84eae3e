"""Tests for the XML-DSig/XML-Enc analogues."""

import pytest

from repro.wss import (
    CertificateAuthority,
    KeyStore,
    SignatureError,
    TrustValidator,
    canonicalize,
    decrypt_document,
    sign_document,
    verify_document,
)
from repro.wss.xmlenc import DecryptionError, EncryptedDocument


@pytest.fixture
def pki():
    keystore = KeyStore(seed=2)
    ca = CertificateAuthority("Root", keystore)
    pair = keystore.generate("signer")
    cert = ca.issue("signer", pair.public, not_before=0.0, lifetime=1000.0)
    validator = TrustValidator(keystore, [ca])
    return keystore, ca, pair, cert, validator


class TestXmlDsig:
    def test_sign_verify(self, pki):
        keystore, _, pair, cert, validator = pki
        doc = sign_document("<a>content</a>", pair, cert)
        verify_document(doc, keystore, validator, at=1.0)

    def test_whitespace_insensitive(self, pki):
        keystore, _, pair, cert, validator = pki
        doc = sign_document("<a>\n  <b/>\n</a>", pair, cert)
        assert canonicalize(doc.content) == "<a><b/></a>"
        verify_document(doc, keystore, validator, at=1.0)

    def test_tampered_content_rejected(self, pki):
        from dataclasses import replace

        keystore, _, pair, cert, validator = pki
        doc = sign_document("<a>content</a>", pair, cert)
        tampered = replace(doc, content="<a>EVIL</a>")
        with pytest.raises(SignatureError, match="digest mismatch"):
            verify_document(tampered, keystore, validator, at=1.0)

    def test_signature_substitution_rejected(self, pki):
        from dataclasses import replace

        keystore, _, pair, cert, validator = pki
        doc = sign_document("<a>1</a>", pair, cert)
        other = sign_document("<a>2</a>", pair, cert)
        frankendoc = replace(doc, signature=other.signature)
        with pytest.raises(SignatureError):
            verify_document(frankendoc, keystore, validator, at=1.0)

    def test_mismatched_cert_rejected_at_sign_time(self, pki):
        keystore, ca, pair, cert, _ = pki
        other_pair = keystore.generate("other")
        with pytest.raises(ValueError, match="does not match"):
            sign_document("<a/>", other_pair, cert)

    def test_serialized_form_contains_signature_block(self, pki):
        _, _, pair, cert, _ = pki
        doc = sign_document("<a/>", pair, cert)
        xml = doc.to_xml()
        assert "<ds:Signature" in xml and "<ds:SignatureValue>" in xml
        assert doc.wire_size > len("<a/>")


def encrypt(content, recipient, keystore):
    """What WS-Security does to a body it encrypts (its wire form is
    ``secure_envelope(..., encrypt_to=...)``'s, tested in ``tests/wsvc``)."""
    return EncryptedDocument(keystore.encrypt_to(recipient, content.encode("utf-8")))


class TestXmlEnc:
    def test_encrypt_decrypt(self, pki):
        keystore, _, pair, cert, _ = pki
        doc = encrypt("<secret>42</secret>", pair.public, keystore)
        assert decrypt_document(doc, pair) == "<secret>42</secret>"

    def test_wrong_recipient_fails(self, pki):
        keystore, _, pair, _, _ = pki
        other = keystore.generate("other")
        doc = encrypt("<x/>", pair.public, keystore)
        with pytest.raises(DecryptionError):
            decrypt_document(doc, other)
