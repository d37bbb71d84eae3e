"""Tests for the Web Services substrate: SOAP, WS-Security, registry."""

import pytest

from repro.wsvc import (
    RegistryError,
    SecurityConfig,
    ServiceRegistry,
    SoapEnvelope,
    SoapFault,
    WsSecurityError,
    pdp_description,
    request_envelope,
    response_envelope,
    secure_envelope,
    signer_of,
    verify_envelope,
)
from repro.wss import CertificateAuthority, KeyStore, TrustValidator


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

    def test_fault_envelope(self):
        fault = SoapFault("soap:Sender", "bad request")
        envelope = fault.to_envelope()
        assert envelope.is_fault

    def test_response_envelope_action(self):
        request = request_envelope("op", "<B/>")
        response = response_envelope(request, "<R/>")
        assert response.action == "op:response"

    def test_wire_size_grows_with_content(self):
        small = request_envelope("op", "<B/>")
        large = request_envelope("op", "<B>" + "x" * 1000 + "</B>")
        assert large.wire_size > small.wire_size


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
            config=SecurityConfig(require_encryption=True),
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

    def test_cleartext_rejected_when_encryption_required(self, pki):
        keystore, pair, cert, _, _, validator = pki
        protected = secure_envelope(
            request_envelope("op", "<B/>"), pair, cert, keystore
        )
        with pytest.raises(WsSecurityError, match="cleartext"):
            verify_envelope(
                protected,
                keystore,
                validator,
                config=SecurityConfig(require_encryption=True),
            )

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
        validator._anchors["Root"].revoke(cert)
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
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_envelope(broken, keystore, validator)

    def test_security_adds_measurable_overhead(self, pki):
        keystore, pair, cert, recipient, _, _ = pki
        plain = request_envelope("op", "<Data>x</Data>")
        signed = secure_envelope(plain, pair, cert, keystore)
        encrypted = secure_envelope(
            plain, pair, cert, keystore, encrypt_to=recipient.public
        )
        assert signed.wire_size > plain.wire_size
        assert encrypted.wire_size > signed.wire_size


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

    def test_deregister(self):
        registry = ServiceRegistry()
        registry.register(pdp_description("pdp-a", "pdp-a"))
        registry.deregister("pdp-a")
        with pytest.raises(RegistryError):
            registry.lookup("pdp-a")

