"""Tests for the Web Services substrate: SOAP, WS-Security, registry."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.wsvc import (
    SECURITY_HEADER,
    HeaderBlock,
    RegistryError,
    ServiceRegistry,
    SoapEnvelope,
    SoapFault,
    WsSecurityError,
    pdp_description,
    request_envelope,
    secure_envelope,
    signer_of,
    verify_envelope,
)
from repro.revocation import RevocationKind, RevocationRegistry, certificate_target
from repro.wss import CertificateAuthority, KeyStore, TrustValidator


def revoke(ca, certificate):
    """Bind ``ca`` to a fresh registry and record ``certificate``'s
    revocation there, the one place revocations are recorded."""
    registry = RevocationRegistry()
    ca.bind_revocation_registry(registry)
    registry.revoke(RevocationKind.CERTIFICATE, certificate_target(certificate.serial))


@pytest.fixture
def pki():
    keystore = KeyStore(seed=8)
    ca = CertificateAuthority("Root", keystore)
    pair = keystore.generate("sender")
    cert = ca.issue("sender", pair.public, not_before=0.0, lifetime=1000.0)
    recipient = keystore.generate("recipient")
    rcert = ca.issue("recipient", recipient.public, not_before=0.0, lifetime=1000.0)
    validator = TrustValidator(keystore, [ca])
    return keystore, pair, cert, recipient, rcert, validator


class TestSoapEnvelope:
    def test_roundtrip_plain(self):
        envelope = request_envelope("op.do", "<Payload x=\"1\"><Inner/></Payload>")
        reparsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert reparsed.action == "op.do"
        assert reparsed.body_xml == envelope.body_xml

    def test_roundtrip_with_headers(self):
        envelope = request_envelope("op", "<B/>")
        envelope.add_header("x:Token", "<Value>42</Value>", must_understand=True)
        envelope.add_header("y:Plain", "text-content")
        reparsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert reparsed.header("x:Token").content_xml == "<Value>42</Value>"
        assert reparsed.header("x:Token").must_understand
        assert reparsed.header("y:Plain").content_xml == "text-content"

    def test_nested_same_name_header_blocks(self):
        envelope = request_envelope("op", "<B/>")
        envelope.add_header("w:Wrap", "<w:Wrap>inner</w:Wrap>")
        reparsed = SoapEnvelope.from_xml(envelope.to_xml())
        assert reparsed.header("w:Wrap").content_xml == "<w:Wrap>inner</w:Wrap>"

    def test_not_an_envelope(self):
        with pytest.raises(SoapFault):
            SoapEnvelope.from_xml("<NotSoap/>")

    def test_wire_size_grows_with_content(self):
        small = request_envelope("op", "<B/>")
        large = request_envelope("op", "<B>" + "x" * 1000 + "</B>")
        assert large.wire_size > small.wire_size

    @settings(max_examples=150)
    @given(
        action=st.text(),
        body=st.text(),
        headers=st.lists(st.tuples(st.text(), st.text(), st.booleans()), max_size=4),
    )
    @example(action="op", body="<B/>", headers=[])
    @example(action="op", body="<B/>", headers=[("x:T", "v", True)])
    @example(action="ö", body="<B>ü€𝄞</B>", headers=[("x:T", "€", False)])
    @example(
        action="op.ß",
        body="<B/>",
        headers=[("x:A", "<V>1</V>", True), ("é:B", "𝄞", False), ("x:C", "", True)],
    )
    def test_wire_size_is_the_byte_length_of_the_text(self, action, body, headers):
        envelope = SoapEnvelope(
            action, body, [HeaderBlock(name, content, mu) for name, content, mu in headers]
        )
        assert envelope.wire_size == len(envelope.to_xml().encode("utf-8"))


class TestWsSecurity:
    def test_sign_verify_roundtrip_over_wire(self, pki):
        keystore, pair, cert, _, _, validator = pki
        envelope = request_envelope("op", "<Data>7</Data>")
        protected = secure_envelope(envelope, pair, cert, keystore)
        arrived = SoapEnvelope.from_xml(protected.to_xml())
        clear = verify_envelope(arrived, keystore, validator)
        assert clear.body_xml == "<Data>7</Data>"
        assert signer_of(clear) == "sender"

    def test_encrypt_roundtrip_over_wire(self, pki):
        keystore, pair, cert, recipient, _, validator = pki
        envelope = request_envelope("op", "<Secret/>")
        protected = secure_envelope(
            envelope, pair, cert, keystore, encrypt_to=recipient.public
        )
        assert "<Secret/>" not in protected.to_xml()
        arrived = SoapEnvelope.from_xml(protected.to_xml())
        clear = verify_envelope(
            arrived,
            keystore,
            validator,
            decrypt_with=recipient,
        )
        assert clear.body_xml == "<Secret/>"

    def test_tampered_body_rejected(self, pki):
        keystore, pair, cert, _, _, validator = pki
        protected = secure_envelope(
            request_envelope("op", "<Amount>10</Amount>"), pair, cert, keystore
        )
        tampered = SoapEnvelope.from_xml(
            protected.to_xml().replace("<Amount>10<", "<Amount>999<")
        )
        with pytest.raises(WsSecurityError, match="digest mismatch"):
            verify_envelope(tampered, keystore, validator)

    def test_action_binding_prevents_replay_to_other_operation(self, pki):
        keystore, pair, cert, _, _, validator = pki
        protected = secure_envelope(
            request_envelope("op.read", "<B/>"), pair, cert, keystore
        )
        replayed = SoapEnvelope.from_xml(
            protected.to_xml().replace('action="op.read"', 'action="op.delete"')
        )
        with pytest.raises(WsSecurityError):
            verify_envelope(replayed, keystore, validator)

    def test_unsigned_rejected_when_required(self, pki):
        keystore, _, _, _, _, validator = pki
        with pytest.raises(WsSecurityError, match="unprotected"):
            verify_envelope(request_envelope("op", "<B/>"), keystore, validator)

    def test_untrusted_signer_rejected(self, pki):
        keystore, _, _, _, _, validator = pki
        rogue_store = KeyStore(seed=55)
        rogue_ca = CertificateAuthority("Rogue", rogue_store)
        rogue = rogue_store.generate("rogue")
        rogue_cert = rogue_ca.issue("rogue", rogue.public, 0.0, 1000.0)
        protected = secure_envelope(
            request_envelope("op", "<B/>"), rogue, rogue_cert, rogue_store
        )
        with pytest.raises(WsSecurityError):
            verify_envelope(
                SoapEnvelope.from_xml(protected.to_xml()), keystore, validator
            )

    def test_token_memo_parses_a_token_once_and_checks_it_every_time(self, pki):
        from repro.wsvc import ws_security

        keystore, pair, cert, _, _, validator = pki
        arrived = SoapEnvelope.from_xml(
            secure_envelope(
                request_envelope("op", "<B/>"), pair, cert, keystore
            ).to_xml()
        )
        ws_security._certificate_of.cache_clear()
        for _ in range(3):
            assert signer_of(verify_envelope(arrived, keystore, validator)) == "sender"
        info = ws_security._certificate_of.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert info.maxsize == ws_security.TOKEN_MEMO_SIZE
        # Warm memo, warm validator: a revocation still lands on the
        # very next message, and so does the clock.
        with pytest.raises(WsSecurityError, match="outside validity"):
            verify_envelope(arrived, keystore, validator, at=cert.not_after + 1)
        revoke(validator._anchors["Root"], cert)
        with pytest.raises(WsSecurityError, match="revoked"):
            verify_envelope(arrived, keystore, validator)

    def test_token_memo_keeps_altered_tokens_apart(self, pki):
        keystore, pair, cert, _, _, validator = pki
        protected = secure_envelope(
            request_envelope("op", "<B/>"), pair, cert, keystore
        ).to_xml()
        verify_envelope(SoapEnvelope.from_xml(protected), keystore, validator)
        forged = SoapEnvelope.from_xml(
            protected.replace('subject="sender"', 'subject="mallory"')
        )
        for _ in range(3):
            with pytest.raises(WsSecurityError, match="untrusted signer 'mallory'"):
                verify_envelope(forged, keystore, validator)

    def test_a_token_that_does_not_parse_raises_every_time(self, pki):
        keystore, pair, cert, _, _, validator = pki
        protected = secure_envelope(
            request_envelope("op", "<B/>"), pair, cert, keystore
        ).to_xml()
        broken = SoapEnvelope.from_xml(
            protected.replace(f'serial="{cert.serial}"', 'serial="many"')
        )
        # ... as a security error (it used to be the parser's
        # ValueError, which no handler caught), and on every call: the
        # token memo never remembers a failure.
        for _ in range(2):
            with pytest.raises(WsSecurityError, match="malformed BinarySecurityToken"):
                verify_envelope(broken, keystore, validator)

    def test_encrypted_body_hides_the_plaintext(self, pki):
        keystore, pair, cert, recipient, _, _ = pki
        protected = secure_envelope(
            request_envelope("op", "<secret>42</secret>"),
            pair,
            cert,
            keystore,
            encrypt_to=recipient.public,
        )
        assert "<secret>42</secret>" not in protected.to_xml()
        assert "secret" not in protected.body_xml
        assert protected.body_xml.startswith("<xenc:EncryptedData")

    def test_security_adds_measurable_overhead(self, pki):
        keystore, pair, cert, recipient, _, _ = pki
        plain = request_envelope("op", "<Data>x</Data>")
        signed = secure_envelope(plain, pair, cert, keystore)
        encrypted = secure_envelope(
            plain, pair, cert, keystore, encrypt_to=recipient.public
        )
        assert signed.wire_size > plain.wire_size
        assert encrypted.wire_size > signed.wire_size
        assert len(encrypted.body_xml) > len(plain.body_xml)


def with_security_content(envelope, content):
    """``envelope`` with its security header's content replaced."""
    return SoapEnvelope(
        envelope.action,
        envelope.body_xml,
        [
            HeaderBlock(block.name, content, block.must_understand)
            if block.name == SECURITY_HEADER
            else block
            for block in envelope.headers
        ],
    )


def security_parts(envelope):
    """``(token, signature block)`` of a signed envelope's header."""
    content = envelope.header(SECURITY_HEADER).content_xml
    token_end = content.index("/>") + 2
    return content[:token_end], content[token_end:]


def _reshaped(arrange):
    def damage(envelope, pki):
        token, signature = security_parts(envelope)
        return with_security_content(envelope, arrange(token, signature)), {}

    return damage


def _other_body(envelope, pki):
    keystore, pair, cert, _, _, _ = pki
    other = secure_envelope(request_envelope("op", "<B>other</B>"), pair, cert, keystore)
    return with_security_content(
        envelope, other.header(SECURITY_HEADER).content_xml
    ), {}


def _other_key(envelope, pki):
    keystore, _, _, _, _, _ = pki
    token, signature = security_parts(envelope)
    digest = re.search("<ds:DigestValue>([0-9a-f]+)<", signature).group(1)
    forged = keystore.generate("mallory").sign(digest.encode("ascii"))
    signature = re.sub(
        "<ds:SignatureValue>[0-9a-f]+<", f"<ds:SignatureValue>{forged}<", signature
    )
    return with_security_content(envelope, token + signature), {}


def _expired(envelope, pki):
    cert = pki[2]
    return envelope, {"at": cert.not_after + 1.0}


def _revoked(envelope, pki):
    keystore, _, cert, _, _, validator = pki
    revoke(validator._anchors["Root"], cert)
    return envelope, {}


#: Each a header (or a moment) that must not verify, however the rest
#: of the envelope looks: the one-pass header read refuses any layout
#: :func:`secure_envelope` does not write, and every check after it
#: still runs on every message.
REFUSALS = {
    "token missing": (_reshaped(lambda token, signature: signature), "security header"),
    "token not first": (
        _reshaped(lambda token, signature: "<wsse:Timestamp/>" + token + signature),
        "security header",
    ),
    "token duplicated": (
        _reshaped(lambda token, signature: token + token + signature),
        "security header",
    ),
    "signature block missing": (
        _reshaped(lambda token, signature: token),
        "security header",
    ),
    "signature block before the token": (
        _reshaped(lambda token, signature: signature + token),
        "security header",
    ),
    "non-hex digest": (
        _reshaped(
            lambda token, signature: token
            + re.sub("<ds:DigestValue>[0-9a-f]{8}", "<ds:DigestValue>zzzzzzzz", signature)
        ),
        "security header",
    ),
    "digest of another body": (_other_body, "digest mismatch"),
    "signature by another key": (_other_key, "invalid signature"),
    "outside the validity window": (_expired, "outside validity"),
    "revoked certificate": (_revoked, "revoked"),
}


class TestSecurityHeaderRefusals:
    @pytest.mark.parametrize("over_the_wire", [False, True])
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_every_refusal_is_a_security_error(self, pki, case, over_the_wire):
        keystore, pair, cert, _, _, validator = pki
        signed = secure_envelope(
            request_envelope("op", "<Data>7</Data>"), pair, cert, keystore
        )
        assert signer_of(verify_envelope(signed, keystore, validator, at=1.0)) == "sender"
        damage, message = REFUSALS[case]
        damaged, options = damage(signed, pki)
        if over_the_wire:
            damaged = SoapEnvelope.from_xml(damaged.to_xml())
        options.setdefault("at", 1.0)
        with pytest.raises(WsSecurityError, match=message):
            verify_envelope(damaged, keystore, validator, **options)

    def test_the_header_is_read_in_the_order_it_is_written(self, pki):
        keystore, pair, cert, recipient, _, validator = pki
        for encrypt_to in (None, recipient.public):
            signed = secure_envelope(
                request_envelope("op", "<Data>7</Data>"),
                pair,
                cert,
                keystore,
                encrypt_to=encrypt_to,
            )
            content = signed.header(SECURITY_HEADER).content_xml
            assert content.startswith("<wsse:BinarySecurityToken ")
            assert content.endswith(
                "</ds:Signature>" if encrypt_to is None else "<wsse:EncryptedBody/>"
            )
            clear = verify_envelope(signed, keystore, validator, decrypt_with=recipient)
            assert clear.body_xml == "<Data>7</Data>"
            assert clear.header(SECURITY_HEADER) is None

    def test_the_token_text_is_written_once_per_certificate(self, pki):
        from repro.wsvc import ws_security

        keystore, pair, cert, _, _, _ = pki
        ws_security._token_of.cache_clear()
        texts = {
            secure_envelope(
                request_envelope("op", f"<B>{index}</B>"), pair, cert, keystore
            ).header(SECURITY_HEADER).content_xml.split("/>", 1)[0]
            for index in range(3)
        }
        info = ws_security._token_of.cache_info()
        assert (info.misses, info.hits, len(texts)) == (1, 2, 1)
        assert ws_security._certificate_of(texts.pop() + "/>") == cert


class TestRegistry:
    def test_register_lookup(self):
        registry = ServiceRegistry()
        registry.register(pdp_description("pdp-1", "pdp-1", domain="a"))
        assert registry.lookup("pdp-1").address == "pdp-1"

    def test_duplicate_rejected(self):
        registry = ServiceRegistry()
        registry.register(pdp_description("pdp-1", "pdp-1"))
        with pytest.raises(RegistryError):
            registry.register(pdp_description("pdp-1", "pdp-1"))

    def test_find_by_type_and_domain(self):
        registry = ServiceRegistry()
        registry.register(pdp_description("pdp-a", "pdp-a", domain="a"))
        registry.register(pdp_description("pdp-b", "pdp-b", domain="b"))
        found = registry.find(service_type="pdp", domain="b")
        assert [d.name for d in found] == ["pdp-b"]

    def test_health_filtering(self):
        registry = ServiceRegistry()
        registry.register(pdp_description("pdp-a", "pdp-a", domain="a"))
        registry.mark_health("pdp-a", False)
        assert registry.find(service_type="pdp") == []
        assert len(registry.find(service_type="pdp", healthy_only=False)) == 1
