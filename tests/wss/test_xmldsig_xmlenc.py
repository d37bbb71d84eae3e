"""Tests for the XML-DSig/XML-Enc analogues."""

import pytest

from repro.wss import (
    CertificateAuthority,
    KeyStore,
    SignatureError,
    TrustValidator,
    canonicalize,
    decrypt_document,
    encrypt_document,
    is_authentic,
    sign_document,
    verify_document,
)
from repro.wss.xmlenc import DecryptionError


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

    def test_is_authentic_wrapper(self, pki):
        keystore, _, pair, cert, validator = pki
        doc = sign_document("<a/>", pair, cert)
        assert is_authentic(doc, keystore, validator, at=1.0)
        assert not is_authentic(doc, keystore, validator, at=2000.0)


class TestXmlEnc:
    def test_encrypt_decrypt(self, pki):
        keystore, _, pair, cert, _ = pki
        doc = encrypt_document("<secret>42</secret>", pair.public, keystore)
        assert decrypt_document(doc, pair) == "<secret>42</secret>"

    def test_ciphertext_xml_hides_content(self, pki):
        keystore, _, pair, _, _ = pki
        doc = encrypt_document("<secret>42</secret>", pair.public, keystore)
        assert "42" not in doc.to_xml() or "secret" not in doc.to_xml()

    def test_wrong_recipient_fails(self, pki):
        keystore, _, pair, _, _ = pki
        other = keystore.generate("other")
        doc = encrypt_document("<x/>", pair.public, keystore)
        with pytest.raises(DecryptionError):
            decrypt_document(doc, other)

    def test_ciphertext_is_larger_than_plaintext(self, pki):
        keystore, _, pair, _, _ = pki
        plaintext = "<data>" + "x" * 500 + "</data>"
        doc = encrypt_document(plaintext, pair.public, keystore)
        assert doc.wire_size > len(plaintext)

