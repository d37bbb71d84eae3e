"""Decision verifier: did the fabric give the answers a bare engine gives?

After a measured phase, 1,000 evenly spaced completions are replayed
through a bare ``PdpEngine`` built from the same policies (no wire, no
caches, no batching) and grant/deny is compared.  On
``federated_cached`` every revoked subject gets a ``StalenessAudit``
instead (its decisions legitimately change mid-run), replayed over the
logged completion times.  Uncompleted requests, fail-safe results,
oracle mismatches and stale grants past the coherence window are all
*failed operations*.
"""

from __future__ import annotations

from dataclasses import dataclass

from harness import Drive
from repro.workloads import StalenessAudit
from worlds import FED_COHERENCE_WINDOW, World

ORACLE_SAMPLES = 1_000


@dataclass(frozen=True)
class Verdict:
    attempted: int
    not_completed: int
    fail_safe: int
    oracle_mismatches: int
    stale_grants: int
    #: Completions the oracle replayed / revoked subjects audited.
    oracle_checked: int
    audited_subjects: int

    @property
    def failed(self) -> int:
        return (
            self.not_completed
            + self.fail_safe
            + self.oracle_mismatches
            + self.stale_grants
        )


class _CompletedAt:
    """Stands in for the PEP when an audit is replayed from the log."""

    def __init__(self) -> None:
        self.now = 0.0


def verify(world: World, drive: Drive) -> Verdict:
    log = drive.meter.log
    completed = len(log)
    fail_safe = sum(1 for result in log.results if result.source == "fail-safe")

    audits = {
        subject: StalenessAudit(subject, FED_COHERENCE_WINDOW)
        for subject in world.revoked_at
    }
    for subject, audit in audits.items():
        audit.mark_revoked(world.revoked_at[subject])
    if audits:
        stamp = _CompletedAt()
        for request, result, at in zip(
            log.requests, log.results, log.at, strict=True
        ):
            audit = audits.get(request.subject_id)
            if audit is not None:
                stamp.now = at
                audit(stamp, request, result)

    mismatches = checked = 0
    stride = max(1, completed // ORACLE_SAMPLES)
    for index in range(0, completed, stride):
        request = log.requests[index]
        if request.subject_id in audits:
            continue
        checked += 1
        if world.oracle(request) != log.results[index].granted:
            mismatches += 1

    return Verdict(
        attempted=drive.submitted,
        not_completed=drive.submitted - completed,
        fail_safe=fail_safe,
        oracle_mismatches=mismatches,
        stale_grants=sum(audit.violation_count for audit in audits.values()),
        oracle_checked=checked,
        audited_subjects=len(audits),
    )
