"""The unified revocation registry: one source of revocation truth.

Seed modules each kept their own revocation state (a CA's serial set, a
trust graph's edge removal, a delegation registry's grant list, ...).
The registry replaces those silos with a single signed, epoch-numbered
log that (a) answers point queries (``is_revoked``), (b) serves delta
CRLs (``records_since``), and (c) drives push invalidation through
listeners — the three access patterns behind the pull / online-status /
push propagation strategies of :mod:`repro.revocation.strategies`.

The scattered ``revoke()`` entry points stay in place for compatibility
but delegate here once bound (``bind_revocation_registry`` on each
owner class), keeping their public signatures intact.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from ..wss.keys import KeyPair, KeyStore
from .records import (
    RevocationKind,
    RevocationRecord,
    capability_target,
    certificate_target,
    delegation_target,
    entitlement_target,
    subject_access_target,
    subject_capability_target,
    trust_edge_target,
    verify_record,
)

#: Callback fired synchronously for every new record (push fan-out hook).
RevocationListener = Callable[[RevocationRecord], None]


class RevocationRegistry:
    """Signed, epoch-numbered log of every revocation in the deployment.

    Args:
        authority_name: issuer name stamped on records (and used by
            relying parties to pick a verification key).
        keypair: when given, each record is signed over its TBS bytes;
            None runs the registry unsigned (local/unit-test use).
        clock: callable returning current simulated time; defaults to 0.0
            timestamps so the registry works detached from a network.
    """

    def __init__(
        self,
        authority_name: str = "revocation-registry",
        keypair: Optional[KeyPair] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.authority_name = authority_name
        self.keypair = keypair
        self._clock = clock
        self._records: list[RevocationRecord] = []
        self._index: dict[tuple[str, str], RevocationRecord] = {}
        self._listeners: list[RevocationListener] = []
        self.revocations_issued = 0

    @property
    def epoch(self) -> int:
        """Epoch of the newest record (0 when nothing was ever revoked)."""
        return self._records[-1].epoch if self._records else 0

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- issue -------------------------------------------------------------------

    def revoke(
        self,
        kind: RevocationKind,
        target: str,
        reason: str = "",
        subject_id: str = "",
        resource_id: str = "",
        at: Optional[float] = None,
    ) -> RevocationRecord:
        """Issue (or return the existing) revocation for ``(kind, target)``.

        Revocation is idempotent: revoking an already-revoked target
        returns the original record without burning a new epoch, so
        repeated delegation cascades do not inflate delta CRLs.
        """
        existing = self._index.get((kind.value, target))
        if existing is not None:
            return existing
        record = RevocationRecord(
            kind=kind,
            target=target,
            issuer=self.authority_name,
            epoch=self.epoch + 1,
            revoked_at=self._now() if at is None else at,
            reason=reason,
            subject_id=subject_id,
            resource_id=resource_id,
        )
        if self.keypair is not None:
            record = replace(
                record, signature=self.keypair.sign(record.tbs_bytes())
            )
        self._records.append(record)
        self._index[record.key] = record
        self.revocations_issued += 1
        for listener in list(self._listeners):
            listener(record)
        return record

    # -- query -------------------------------------------------------------------

    def is_revoked(self, kind: RevocationKind, target: str) -> bool:
        return (kind.value, target) in self._index

    def record_for(
        self, kind: RevocationKind, target: str
    ) -> Optional[RevocationRecord]:
        return self._index.get((kind.value, target))

    def records_since(self, epoch: int) -> list[RevocationRecord]:
        """Delta CRL: every record issued after ``epoch`` (ascending)."""
        # Records are appended in epoch order, so a reverse scan for the
        # cut point keeps frequent small deltas cheap.
        cut = len(self._records)
        while cut > 0 and self._records[cut - 1].epoch > epoch:
            cut -= 1
        return self._records[cut:]

    def records(self) -> list[RevocationRecord]:
        return list(self._records)

    def crl(self, kind: Optional[RevocationKind] = None) -> frozenset[str]:
        """Snapshot of revoked targets, optionally filtered by kind."""
        return frozenset(
            record.target
            for record in self._records
            if kind is None or record.kind is kind
        )

    def verify(self, record: RevocationRecord, keystore: KeyStore) -> bool:
        """Check a record's signature against this registry's authority key."""
        if self.keypair is None:
            return record.signature == ""
        return verify_record(record, keystore, self.keypair.public)

    # -- push hook ---------------------------------------------------------------

    def add_listener(self, listener: RevocationListener) -> None:
        self._listeners.append(listener)

    # -- kind-specific façade ----------------------------------------------------
    #
    # These helpers let legacy owners (CA, trust graph, delegation
    # registry, RBAC model) delegate by duck typing, without
    # importing revocation types — which keeps the low layers
    # (wss, domain, admin, models) free of upward dependencies.

    def revoke_certificate(
        self, serial: int, reason: str = "", subject_id: str = ""
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.CERTIFICATE,
            certificate_target(serial),
            reason=reason,
            subject_id=subject_id,
        )

    def certificate_revoked(self, serial: int) -> bool:
        return self.is_revoked(
            RevocationKind.CERTIFICATE, certificate_target(serial)
        )

    def revoked_serials(self) -> frozenset[int]:
        """CRL view for :meth:`CertificateAuthority.crl` compatibility."""
        return frozenset(
            int(record.target.partition(":")[2])
            for record in self._records
            if record.kind is RevocationKind.CERTIFICATE
        )

    def revoke_capability(
        self, assertion_id: str, reason: str = "", subject_id: str = ""
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.CAPABILITY,
            capability_target(assertion_id),
            reason=reason,
            subject_id=subject_id,
        )

    def revoke_subject_capabilities(
        self, subject_id: str, reason: str = ""
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.CAPABILITY,
            subject_capability_target(subject_id),
            reason=reason,
            subject_id=subject_id,
        )

    def capability_revoked(self, assertion_id: str, subject_id: str = "") -> bool:
        if self.is_revoked(
            RevocationKind.CAPABILITY, capability_target(assertion_id)
        ):
            return True
        return bool(subject_id) and self.is_revoked(
            RevocationKind.CAPABILITY, subject_capability_target(subject_id)
        )

    def revoke_trust_edge(
        self, truster: str, trusted: str, kind: str, reason: str = ""
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.TRUST_EDGE,
            trust_edge_target(truster, trusted, kind),
            reason=reason,
        )

    def trust_edge_revoked(self, truster: str, trusted: str, kind: str) -> bool:
        return self.is_revoked(
            RevocationKind.TRUST_EDGE, trust_edge_target(truster, trusted, kind)
        )

    def revoke_delegation(
        self, delegator: str, delegate: str, scope: str, reason: str = ""
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.DELEGATION,
            delegation_target(delegator, delegate, scope),
            reason=reason,
            subject_id=delegate,
        )

    def delegation_revoked(
        self, delegator: str, delegate: str, scope: str
    ) -> bool:
        return self.is_revoked(
            RevocationKind.DELEGATION,
            delegation_target(delegator, delegate, scope),
        )

    def revoke_subject_access(
        self, subject_id: str, reason: str = ""
    ) -> RevocationRecord:
        """Revoke a subject's access wholesale (member left, key leaked).

        Revocation records are permanent, CRL-style: there is no
        un-revoke, so PEP guards deny this subject id for the rest of
        the deployment's life even if backing attributes are restored.
        Re-admission therefore means issuing a *fresh* subject identity
        (the standard PKI answer to "the old name is burned").
        """
        return self.revoke(
            RevocationKind.ENTITLEMENT,
            subject_access_target(subject_id),
            reason=reason,
            subject_id=subject_id,
        )

    def subject_access_revoked(self, subject_id: str) -> bool:
        return self.is_revoked(
            RevocationKind.ENTITLEMENT, subject_access_target(subject_id)
        )

    def revoke_entitlement(
        self,
        model: str,
        subject_id: str,
        resource_id: str,
        action_id: str,
        reason: str = "",
    ) -> RevocationRecord:
        return self.revoke(
            RevocationKind.ENTITLEMENT,
            entitlement_target(model, subject_id, resource_id, action_id),
            reason=reason,
            subject_id=subject_id,
            resource_id=resource_id,
        )

    def revoke_role_permission(
        self,
        model: str,
        role: str,
        resource_id: str,
        action_id: str,
        reason: str = "",
    ) -> RevocationRecord:
        """RBAC-style: the entitlement's holder is a *role*, not a subject.

        A role name must not be recorded as ``subject_id`` — cached PEP
        decisions are keyed by the requesting subject's id, so selective
        invalidation keys on the resource instead: every cached decision
        touching the resource (whichever user holds the role) is suspect.
        """
        return self.revoke(
            RevocationKind.ENTITLEMENT,
            entitlement_target(model, role, resource_id, action_id),
            reason=reason,
            resource_id=resource_id,
        )

    def entitlement_revoked(
        self, model: str, subject_id: str, resource_id: str, action_id: str
    ) -> bool:
        return self.is_revoked(
            RevocationKind.ENTITLEMENT,
            entitlement_target(model, subject_id, resource_id, action_id),
        )

    def __repr__(self) -> str:
        return (
            f"RevocationRegistry({self.authority_name}, epoch={self.epoch}, "
            f"records={len(self._records)})"
        )
