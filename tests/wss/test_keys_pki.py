"""Tests for key material and the PKI layer."""

import pytest

from repro.wss import (
    CertificateAuthority,
    CertificateError,
    KeyStore,
    TrustValidator,
)


@pytest.fixture
def keystore():
    return KeyStore(seed=1)


class TestKeys:
    def test_generation_is_deterministic(self):
        a = KeyStore(seed=5).generate("x")
        b = KeyStore(seed=5).generate("x")
        assert a.public.key_id == b.public.key_id

    def test_different_labels_different_keys(self, keystore):
        assert keystore.generate("a").public != keystore.generate("b").public

    def test_sign_verify_roundtrip(self, keystore):
        pair = keystore.generate("signer")
        signature = pair.sign(b"payload")
        assert keystore.verify(pair.public, b"payload", signature)

    def test_verify_rejects_modified_data(self, keystore):
        pair = keystore.generate("signer")
        signature = pair.sign(b"payload")
        assert not keystore.verify(pair.public, b"tampered", signature)

    def test_verify_rejects_wrong_key(self, keystore):
        pair = keystore.generate("signer")
        other = keystore.generate("other")
        signature = pair.sign(b"payload")
        assert not keystore.verify(other.public, b"payload", signature)

    def test_encrypt_decrypt_roundtrip(self, keystore):
        pair = keystore.generate("recipient")
        ciphertext = keystore.encrypt_to(pair.public, b"secret data")
        assert pair.decrypt(ciphertext) == b"secret data"

    def test_decrypt_with_wrong_key_fails(self, keystore):
        pair = keystore.generate("recipient")
        wrong = keystore.generate("wrong")
        ciphertext = keystore.encrypt_to(pair.public, b"secret")
        with pytest.raises(PermissionError):
            wrong.decrypt(ciphertext)

    def test_ciphertext_hides_plaintext(self, keystore):
        pair = keystore.generate("recipient")
        ciphertext = keystore.encrypt_to(pair.public, b"secret data")
        assert b"secret" not in ciphertext.body

    def test_encrypt_to_unknown_key_fails(self, keystore):
        from repro.wss.keys import PublicKey

        with pytest.raises(KeyError):
            keystore.encrypt_to(PublicKey("f" * 64), b"x")


class TestCertificates:
    def test_issue_and_validate(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        validator.validate(cert, at=50.0)  # should not raise

    def test_expired_certificate_rejected(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        with pytest.raises(CertificateError, match="validity"):
            validator.validate(cert, at=101.0)

    def test_not_yet_valid_rejected(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=10.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        with pytest.raises(CertificateError):
            validator.validate(cert, at=5.0)

    def test_unknown_issuer_rejected(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        other_store = KeyStore(seed=9)
        rogue = CertificateAuthority("Rogue", other_store)
        pair = other_store.generate("mallory")
        cert = rogue.issue("mallory", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        with pytest.raises(CertificateError, match="no trust path"):
            validator.validate(cert, at=1.0)

    def test_revocation(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        ca.revoke(cert)
        validator = TrustValidator(keystore, [ca])
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(cert, at=1.0)

    def test_intermediate_chain_validates(self, keystore):
        root = CertificateAuthority("Root", keystore)
        intermediate = CertificateAuthority("Mid", keystore, parent=root)
        pair = keystore.generate("svc")
        cert = intermediate.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [root])
        validator.add_intermediate(intermediate)
        validator.validate(cert, at=1.0)

    def test_chain_broken_without_intermediate(self, keystore):
        root = CertificateAuthority("Root", keystore)
        intermediate = CertificateAuthority("Mid", keystore, parent=root)
        pair = keystore.generate("svc")
        cert = intermediate.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [root])
        with pytest.raises(CertificateError):
            validator.validate(cert, at=1.0)

    def test_revoked_intermediate_kills_chain(self, keystore):
        root = CertificateAuthority("Root", keystore)
        intermediate = CertificateAuthority("Mid", keystore, parent=root)
        pair = keystore.generate("svc")
        cert = intermediate.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        root.revoke(intermediate.certificate)
        validator = TrustValidator(keystore, [root])
        validator.add_intermediate(intermediate)
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(cert, at=1.0)

    def test_forged_signature_rejected(self, keystore):
        from dataclasses import replace

        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        forged = replace(cert, subject="admin")
        validator = TrustValidator(keystore, [ca])
        with pytest.raises(CertificateError, match="bad signature"):
            validator.validate(forged, at=1.0)

    def test_is_valid_boolean_wrapper(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        assert validator.is_valid(cert, at=1.0)
        assert not validator.is_valid(cert, at=200.0)

    def test_extensions_roundtrip(self, keystore):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue(
            "svc",
            pair.public,
            not_before=0.0,
            lifetime=10.0,
            extensions=(("vomsFqans", "/vo/group"),),
        )
        assert cert.extension("vomsFqans") == "/vo/group"
        assert cert.extension("missing") is None


class TestVerifiedSignatureMemo:
    """The validator remembers which issuer signatures verified — and
    nothing else.  Every test warms the memo first: each check below
    must hold *after* the certificate has been accepted once."""

    @pytest.fixture
    def chain(self, keystore):
        root = CertificateAuthority("Root", keystore)
        intermediate = CertificateAuthority("Mid", keystore, parent=root)
        pair = keystore.generate("svc")
        cert = intermediate.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [root])
        validator.add_intermediate(intermediate)
        validator.validate(cert, at=1.0)  # warm: both hops remembered
        assert len(validator._verified) == 2
        return root, intermediate, cert, validator

    def test_revoked_after_first_use_is_refused_on_the_next_message(self, chain):
        _, intermediate, cert, validator = chain
        intermediate.revoke(cert)
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(cert, at=2.0)

    def test_revocation_through_a_bound_registry_is_seen_too(self, chain):
        from repro.revocation import RevocationRegistry

        _, intermediate, cert, validator = chain
        registry = RevocationRegistry()
        intermediate.bind_revocation_registry(registry)
        validator.validate(cert, at=2.0)
        registry.revoke_certificate(cert.serial)
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(cert, at=3.0)

    def test_expiry_is_judged_on_every_call(self, chain):
        _, _, cert, validator = chain
        with pytest.raises(CertificateError, match="outside validity"):
            validator.validate(cert, at=cert.not_after + 1.0)
        validator.validate(cert, at=cert.not_after)

    def test_an_altered_certificate_fails_its_signature_every_time(self, chain):
        from dataclasses import replace

        _, _, cert, validator = chain
        forged = replace(cert, subject="mallory")
        for _ in range(3):
            with pytest.raises(CertificateError, match="bad signature"):
                validator.validate(forged, at=2.0)
        validator.validate(cert, at=2.0)

    def test_a_same_named_anchor_with_another_key_refuses_the_old_signatures(
        self, keystore
    ):
        ca = CertificateAuthority("Root", keystore)
        pair = keystore.generate("svc")
        cert = ca.issue("svc", pair.public, not_before=0.0, lifetime=100.0)
        validator = TrustValidator(keystore, [ca])
        validator.validate(cert, at=1.0)
        validator.add_anchor(CertificateAuthority("Root", keystore))
        with pytest.raises(CertificateError, match="bad signature"):
            validator.validate(cert, at=1.0)

    def test_revoking_an_intermediate_refuses_its_leaves(self, chain):
        root, intermediate, cert, validator = chain
        root.revoke(intermediate.certificate)
        with pytest.raises(CertificateError, match="revoked"):
            validator.validate(cert, at=2.0)

    def test_one_hmac_per_distinct_pair(self, chain, monkeypatch):
        _, intermediate, cert, _ = chain
        keystore = intermediate.keystore
        other = intermediate.issue(
            "other", keystore.generate("other").public, not_before=0.0, lifetime=100.0
        )
        verified = []
        verify = keystore.verify

        def counting(public, data, signature):
            verified.append(data)
            return verify(public, data, signature)

        monkeypatch.setattr(keystore, "verify", counting)
        validator = TrustValidator(keystore, [chain[0]])
        validator.add_intermediate(intermediate)
        for index in range(100):
            validator.validate(cert if index % 2 else other, at=1.0)
        # Two leaves and the intermediate they share: three pairs.
        assert sorted(verified) == sorted(
            c.tbs_bytes() for c in (cert, other, intermediate.certificate)
        )

    def test_the_table_never_exceeds_its_bound(self, keystore, monkeypatch):
        monkeypatch.setattr(TrustValidator, "SIGNATURES_REMEMBERED", 8)
        ca = CertificateAuthority("Root", keystore)
        validator = TrustValidator(keystore, [ca])
        certs = [
            ca.issue(
                f"svc-{index}",
                keystore.generate(f"svc-{index}").public,
                not_before=0.0,
                lifetime=100.0,
            )
            for index in range(20)
        ]
        for cert in certs:
            validator.validate(cert, at=1.0)
            assert len(validator._verified) <= 8
        # The oldest fell out, and is simply verified again.
        assert (ca.keypair.public.key_id, certs[0]) not in validator._verified
        validator.validate(certs[0], at=1.0)
        assert (ca.keypair.public.key_id, certs[0]) in validator._verified
        assert len(validator._verified) == 8

    def test_a_failed_signature_is_not_remembered(self, chain):
        from dataclasses import replace

        _, _, cert, validator = chain
        before = dict(validator._verified)
        assert not validator.is_valid(replace(cert, subject="mallory"), at=2.0)
        assert validator._verified == before
