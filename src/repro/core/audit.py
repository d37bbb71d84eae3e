"""Audit and accounting.

"Authorisation services easily contribute to uniformity of accounting and
auditing functions" (paper §2.2, after Woo & Lam).  Every decision that
flows through an :class:`~repro.core.system.AccessControlSystem` lands in
an :class:`AuditLog`; the query helpers support the compliance-style
questions (who touched what, which denials fired, how often did
fail-safe denial engage) the paper's management section motivates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..xacml.context import Decision


@dataclass(frozen=True)
class AuditRecord:
    """One enforcement outcome."""

    at: float
    domain: str
    pep: str
    subject_id: str
    resource_id: str
    action_id: str
    decision: Decision
    source: str  # pdp | cache | capability | fail-safe | obligation | meta-policy
    detail: str = ""


#: Records a log keeps; later ones are counted as dropped.
AUDIT_CAPACITY = 1_000_000


class AuditLog:
    """Append-only audit store with simple analytics."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []
        self.dropped = 0

    def record(self, record: AuditRecord) -> None:
        if len(self._records) >= AUDIT_CAPACITY:
            self.dropped += 1
            return
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[AuditRecord]:
        return list(self._records)

    # -- queries --------------------------------------------------------------

    def denial_rate(self) -> float:
        if not self._records:
            return 0.0
        denials = sum(
            1 for r in self._records if r.decision is not Decision.PERMIT
        )
        return denials / len(self._records)
