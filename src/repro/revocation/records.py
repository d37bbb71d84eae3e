"""Unified revocation records.

The seed scattered revocation across the modules that own what is
revoked — CA CRLs (:mod:`repro.wss.pki`), trust-edge removal
(:mod:`repro.domain.trust`), administrative grant withdrawal
(:mod:`repro.admin.delegation`) and RBAC permission removal
(:mod:`repro.models.rbac`) — each with its own representation and none
with cross-domain propagation.  The paper warns that cached decisions
and policies "may result in false positive or false negative access
control decisions" (§3.2); closing that staleness window requires one
record type every propagation strategy can carry.

A :class:`RevocationRecord` names *what* was revoked (a kind plus a
canonical target string), *who* revoked it, *when*, and at which
registry epoch — the monotone counter that makes delta-CRL pulls
(``records_since``) and idempotent application possible.  Records are
signed by the registry's authority key so relying parties can validate
pushed invalidations the same way they validate certificates.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from urllib.parse import quote
from xml.sax.saxutils import escape, quoteattr

# Re-exported: this module was the helpers' original home and the other
# wire formats in this package import them from here.
from ..xmlutil import parse_attrs, unescape


class RevocationError(Exception):
    """Raised on malformed records or rejected revocation operations."""


class RevocationKind(enum.Enum):
    """What class of artefact a revocation record kills."""

    #: A capability assertion (CAS token) or all capabilities of a
    #: subject (target ``subject:<id>``).
    CAPABILITY = "capability"
    #: An administrative delegation grant (XACML A&D profile edge).
    DELEGATION = "delegation"
    #: An X.509-style certificate, targeted by serial number.
    CERTIFICATE = "certificate"
    #: An inter-domain trust edge (truster → trusted for a trust kind).
    TRUST_EDGE = "trust-edge"
    #: A subject-level entitlement (an RBAC permission, a subject's access).
    ENTITLEMENT = "entitlement"


# -- canonical target encodings -------------------------------------------------
#
# Every scattered revocation site maps onto one flat target string so the
# registry can answer ``is_revoked(kind, target)`` without knowing the
# originating module's data model.  Components are percent-encoded so
# ids containing the separator characters (':', '@', '#', '->') cannot
# make two distinct revocations collide on one (kind, target) key —
# collision would let the registry's idempotency silently swallow the
# second revocation.

#: What ``quote`` never escapes: a text made of these alone is its own
#: encoding (the common case — the PEP guard encodes a subject id on
#: every decision).
_ALWAYS_SAFE = re.compile(r"[A-Za-z0-9_.~-]*").fullmatch


def _component(text: str) -> str:
    return text if _ALWAYS_SAFE(text) else quote(text, safe="")


def certificate_target(serial: int) -> str:
    return f"serial:{serial}"


def capability_target(assertion_id: str) -> str:
    return f"assertion:{_component(assertion_id)}"


def subject_capability_target(subject_id: str) -> str:
    """Revokes *all* capabilities held by one subject."""
    return f"subject:{_component(subject_id)}"


def subject_access_target(subject_id: str) -> str:
    """Revokes a subject's access wholesale (ENTITLEMENT kind).

    This is the coarse 'kill switch' a domain pulls when a member leaves
    or a credential is compromised; PEP revocation guards check it before
    serving cached or fresh decisions.
    """
    return f"subject:{_component(subject_id)}"


def trust_edge_target(truster: str, trusted: str, kind: str) -> str:
    return f"{_component(truster)}->{_component(trusted)}#{_component(kind)}"


def delegation_target(delegator: str, delegate: str, scope: str) -> str:
    return f"{_component(delegator)}->{_component(delegate)}#{_component(scope)}"


def entitlement_target(
    model: str, subject_id: str, resource_id: str, action_id: str
) -> str:
    return (
        f"{_component(model)}:{_component(subject_id)}:"
        f"{_component(action_id)}@{_component(resource_id)}"
    )


@dataclass(frozen=True)
class RevocationRecord:
    """One revocation event, signed and epoch-numbered.

    Attributes:
        kind: artefact class being revoked.
        target: canonical identifier (see the ``*_target`` helpers).
        issuer: authority name that issued the revocation.
        epoch: registry epoch assigned at issue time (monotone, unique
            per registry; delta pulls ask for "everything after epoch N").
        revoked_at: simulated time of issue.
        reason: free-text operator reason, carried for audit.
        subject_id: optional subject the revocation concerns — drives
            *selective* PEP decision-cache invalidation.
        resource_id: optional resource the revocation concerns.
        signature: authority signature over :meth:`tbs_bytes`; empty when
            the registry runs unsigned (unit tests, local use).
    """

    kind: RevocationKind
    target: str
    issuer: str
    epoch: int
    revoked_at: float
    reason: str = ""
    subject_id: str = ""
    resource_id: str = ""
    signature: str = ""

    @property
    def key(self) -> tuple[str, str]:
        """Registry lookup key: (kind value, canonical target)."""
        return (self.kind.value, self.target)

    def tbs_bytes(self) -> bytes:
        """The byte string the issuing authority signs.

        The canonical XML serialization with the signature field blanked:
        covers *every* field (tampering with the audit reason invalidates
        the signature too) and inherits the wire format's escaping, so no
        two distinct records can share TBS bytes.
        """
        return replace(self, signature="").to_xml().encode("utf-8")

    @property
    def wire_size(self) -> int:
        """Approximate serialized footprint for message accounting."""
        return len(self.to_xml().encode("utf-8"))

    # -- wire format -------------------------------------------------------------

    def to_xml(self) -> str:
        return (
            f"<Revocation kind={quoteattr(self.kind.value)} "
            f"target={quoteattr(self.target)} "
            f"issuer={quoteattr(self.issuer)} "
            f'epoch="{self.epoch}" at="{self.revoked_at}" '
            f"subject={quoteattr(self.subject_id)} "
            f"resource={quoteattr(self.resource_id)} "
            f"signature={quoteattr(self.signature)}>"
            f"{escape(self.reason)}</Revocation>"
        )

    @classmethod
    def from_xml(cls, xml_text: str) -> "RevocationRecord":
        match = re.match(
            r"<Revocation ([^>]*)>(.*)</Revocation>$", xml_text, re.DOTALL
        )
        if match is None:
            raise RevocationError(f"not a Revocation record: {xml_text[:80]!r}")
        attrs = parse_attrs(match.group(1))
        try:
            return cls(
                kind=RevocationKind(attrs["kind"]),
                target=attrs["target"],
                issuer=attrs["issuer"],
                epoch=int(attrs["epoch"]),
                revoked_at=float(attrs["at"]),
                subject_id=attrs["subject"],
                resource_id=attrs["resource"],
                signature=attrs["signature"],
                reason=unescape(match.group(2)),
            )
        except (KeyError, ValueError) as exc:
            raise RevocationError(
                f"malformed Revocation record: {exc}"
            ) from exc

    def __repr__(self) -> str:
        return (
            f"RevocationRecord(e{self.epoch} {self.kind.value}:{self.target} "
            f"by {self.issuer})"
        )


def verify_record(record: RevocationRecord, keystore, authority_key) -> bool:
    """Relying-party check of a record's authority signature.

    Args:
        keystore: the shared :class:`~repro.wss.keys.KeyStore`.
        authority_key: the issuing authority's public key (e.g. from its
            certificate); unsigned records never verify here.
    """
    if not record.signature:
        return False
    return keystore.verify(authority_key, record.tbs_bytes(), record.signature)


def serialize_records(records: list[RevocationRecord], epoch: int) -> str:
    """Bundle records into a delta-CRL reply payload."""
    body = "".join(r.to_xml() for r in records)
    return f'<RevocationList epoch="{epoch}">{body}</RevocationList>'


def parse_records(xml_text: str) -> tuple[list[RevocationRecord], int]:
    """Inverse of :func:`serialize_records`: (records, list epoch)."""
    head = re.match(r'<RevocationList epoch="(\d+)">', xml_text)
    if head is None:
        raise RevocationError(f"not a RevocationList: {xml_text[:80]!r}")
    records = [
        RevocationRecord.from_xml(m.group(0))
        for m in re.finditer(r"<Revocation .*?</Revocation>", xml_text, re.DOTALL)
    ]
    return records, int(head.group(1))
