"""Tests for revocation records and the unified registry."""

from urllib.parse import quote

import pytest
from hypothesis import given, strategies as st

from repro.revocation import (
    RevocationError,
    RevocationKind,
    RevocationRecord,
    RevocationRegistry,
    certificate_target,
    parse_records,
    serialize_records,
    subject_access_target,
    trust_edge_target,
)
from repro.revocation.records import _component, trust_edge_of
from repro.wss import KeyStore


class TestRecords:
    def make(self, **overrides):
        fields = dict(
            kind=RevocationKind.CAPABILITY,
            target="assertion:saml-7",
            issuer="authority",
            epoch=3,
            revoked_at=12.5,
            reason="key compromised <really>",
            subject_id="alice",
        )
        fields.update(overrides)
        return RevocationRecord(**fields)

    def test_xml_round_trip(self):
        record = self.make()
        assert RevocationRecord.from_xml(record.to_xml()) == record

    def test_round_trip_escapes_reason(self):
        record = self.make(reason='<Fault a="b">&amp;</Fault>')
        assert RevocationRecord.from_xml(record.to_xml()).reason == record.reason

    def test_round_trip_with_hostile_field_values(self):
        # Ampersands, angle brackets and both quote styles in attribute
        # values must survive the wire exactly — a lossy round trip
        # would silently mis-target the revocation at relying parties.
        for subject in ('a&b', 'a<b>c', 'quote"d', "apos'd", 'bo"t&h\'s'):
            record = self.make(
                subject_id=subject, target=f"subject:{subject}"
            )
            parsed = RevocationRecord.from_xml(record.to_xml())
            assert parsed == record
            assert parsed.tbs_bytes() == record.tbs_bytes()

    @given(st.text(), st.text(), st.text())
    def test_trust_edge_target_parses_back(self, truster, trusted, kind):
        # The coherence agent reads the edge back to withdraw gateway
        # entries: separator characters in a name must not shift it.
        target = trust_edge_target(truster, trusted, kind)
        assert trust_edge_of(target) == (truster, trusted, kind)

    def test_a_target_naming_no_edge_parses_to_empty_names(self):
        assert trust_edge_of("subject:alice") == ("", "", "")

    def test_bad_xml_rejected(self):
        with pytest.raises(RevocationError, match="not a Revocation"):
            RevocationRecord.from_xml("<Nope/>")

    def test_key_is_kind_and_target(self):
        assert self.make().key == ("capability", "assertion:saml-7")

    def test_wire_size_positive(self):
        assert self.make().wire_size > 50

    def test_list_round_trip(self):
        records = [self.make(epoch=i) for i in (1, 2, 3)]
        parsed, epoch = parse_records(serialize_records(records, epoch=3))
        assert parsed == records
        assert epoch == 3

    def test_empty_list_round_trip(self):
        parsed, epoch = parse_records(serialize_records([], epoch=9))
        assert parsed == []
        assert epoch == 9


class TestRegistry:
    def test_epochs_are_monotone_and_dense(self):
        registry = RevocationRegistry()
        first = registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        second = registry.revoke(RevocationKind.CERTIFICATE, "serial:2")
        assert (first.epoch, second.epoch) == (1, 2)
        assert registry.epoch == 2

    def test_revocation_is_idempotent(self):
        registry = RevocationRegistry()
        first = registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        again = registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        assert again is first
        assert registry.epoch == 1
        assert registry.revocations_issued == 1

    def test_is_revoked(self):
        registry = RevocationRegistry()
        registry.revoke(RevocationKind.TRUST_EDGE, "a->b#identity")
        assert registry.is_revoked(RevocationKind.TRUST_EDGE, "a->b#identity")
        assert not registry.is_revoked(RevocationKind.TRUST_EDGE, "b->a#identity")
        # Same target under a different kind is a different artefact.
        assert not registry.is_revoked(RevocationKind.DELEGATION, "a->b#identity")

    def test_records_since_returns_delta(self):
        registry = RevocationRegistry()
        for serial in range(1, 6):
            registry.revoke(RevocationKind.CERTIFICATE, f"serial:{serial}")
        delta = registry.records_since(3)
        assert [record.epoch for record in delta] == [4, 5]
        assert registry.records_since(5) == []
        assert len(registry.records_since(0)) == 5

    def test_listener_fires_per_new_record_only(self):
        registry = RevocationRegistry()
        seen = []
        registry.add_listener(seen.append)
        registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        assert len(seen) == 1

    def test_signed_records_verify(self):
        keystore = KeyStore(seed=4)
        keypair = keystore.generate(label="authority")
        registry = RevocationRegistry("authority", keypair=keypair)
        record = registry.revoke(RevocationKind.CAPABILITY, "assertion:x")
        assert record.signature
        assert registry.verify(record, keystore)

    def test_tampered_record_fails_verification(self):
        from dataclasses import replace

        keystore = KeyStore(seed=4)
        keypair = keystore.generate(label="authority")
        registry = RevocationRegistry("authority", keypair=keypair)
        record = registry.revoke(RevocationKind.CAPABILITY, "assertion:x")
        forged = replace(record, target="assertion:y")
        assert not registry.verify(forged, keystore)

    def test_clock_stamps_records(self):
        now = [42.0]
        registry = RevocationRegistry(clock=lambda: now[0])
        record = registry.revoke(RevocationKind.CERTIFICATE, "serial:1")
        assert record.revoked_at == 42.0

    def test_kind_helpers(self):
        registry = RevocationRegistry()
        registry.revoke(RevocationKind.CERTIFICATE, certificate_target(1234))
        registry.revoke(RevocationKind.TRUST_EDGE, trust_edge_target("a", "b", "identity"))
        registry.revoke_subject_access("dave")
        assert registry.certificate_revoked(1234)
        assert not registry.certificate_revoked(1235)
        assert registry.trust_edge_revoked("a", "b", "identity")
        assert not registry.trust_edge_revoked("b", "a", "identity")
        entitlement = RevocationKind.ENTITLEMENT
        assert registry.is_revoked(entitlement, subject_access_target("dave"))
        assert not registry.is_revoked(entitlement, subject_access_target("carol"))

    def test_targets_with_separator_characters_do_not_collide(self):
        # Without component escaping these two distinct trust edges
        # would share one target and the second revocation would be
        # silently swallowed by idempotency.
        a = trust_edge_target("a->b", "c", "identity")
        b = trust_edge_target("a", "b->c", "identity")
        assert a != b
        registry = RevocationRegistry()
        registry.revoke(RevocationKind.TRUST_EDGE, a)
        assert not registry.is_revoked(RevocationKind.TRUST_EDGE, b)
        registry.revoke(RevocationKind.TRUST_EDGE, b)
        assert registry.epoch == 2

    @given(
        st.text()
        | st.text(alphabet="abcXYZ019_.~-", max_size=12)
        | st.text(alphabet="ab-_.~:@#>% /é", max_size=12)
    )
    def test_a_target_component_is_percent_quoted_whatever_the_shortcut(self, text):
        """Text made of always-safe characters skips ``quote``; the
        encoding must not depend on which way it went."""
        assert _component(text) == quote(text, safe="")

    def test_tampered_reason_fails_verification(self):
        from dataclasses import replace

        keystore = KeyStore(seed=5)
        keypair = keystore.generate(label="authority")
        registry = RevocationRegistry("authority", keypair=keypair)
        record = registry.revoke(
            RevocationKind.CAPABILITY, "assertion:x", reason="key leaked"
        )
        assert registry.verify(record, keystore)
        # Every field is under the signature, including the audit reason.
        assert not registry.verify(
            replace(record, reason="TAMPERED"), keystore
        )
        assert not registry.verify(
            replace(record, subject_id="mallory"), keystore
        )

    def test_subject_targets_do_not_collide_across_kinds(self):
        registry = RevocationRegistry()
        registry.revoke_subject_access("eve")
        target = subject_access_target("eve")
        assert not registry.is_revoked(RevocationKind.CAPABILITY, target)
        assert registry.is_revoked(RevocationKind.ENTITLEMENT, target)
        assert subject_access_target("eve") == "subject:eve"
