"""Multi-domain closed-loop workloads: remote-fraction request mixes.

The single- and multi-PEP closed loops of :mod:`repro.workloads.highload`
drive one domain's PEPs against one domain's decision tier.  Federation
(experiment E18) needs the multi-*domain* version: several domains'
PEP fleets run concurrently on one network, and a configurable fraction
of each PEP's requests target resources *governed by another domain* —
the traffic that must cross the gateway→gateway path (or, in the naive
baseline, go per-PEP straight at the remote PDP tier).

:func:`multi_domain_request_mix` builds one PEP's stream over the
VO-wide resource population with a given remote fraction; every
domain's PEPs then run through :func:`~repro.workloads.highload.
drive_closed_loop` with the domain names as ``groups`` labels, and
:class:`StalenessAudit` is the observer that prices cache staleness
against a mid-run revocation.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..xacml.context import RequestContext


def federated_resource_id(domain_name: str, index: int) -> str:
    """The canonical VO-wide resource name: ``res.<domain>.<index>``."""
    return f"res.{domain_name}.{index}"


def multi_domain_request_mix(
    home_domain: str,
    domain_names: Sequence[str],
    count: int,
    remote_fraction: float,
    resources_per_domain: int = 8,
    subjects: int = 100,
    read_fraction: float = 0.9,
    seed: int = 0,
) -> list[RequestContext]:
    """One PEP's request stream with a controlled remote share.

    Each request targets a uniformly drawn resource of its governing
    domain: the home domain with probability ``1 - remote_fraction``,
    otherwise a uniformly drawn *other* domain.  Subjects are shared
    across the whole VO population so identical hot requests exist for
    the dedup tiers to merge.

    Args:
        home_domain: the domain whose PEP will submit this stream.
        domain_names: every domain in the VO (including the home one).
        count: stream length.
        remote_fraction: probability a request is remote-governed.
        seed: per-PEP seed; different PEPs should use different seeds so
            streams overlap without being identical.
    """
    if not 0.0 <= remote_fraction <= 1.0:
        raise ValueError(
            f"remote_fraction must be in [0, 1], got {remote_fraction}"
        )
    remote_domains = [name for name in domain_names if name != home_domain]
    if remote_fraction > 0 and not remote_domains:
        raise ValueError(
            f"remote_fraction {remote_fraction} needs at least one domain "
            f"besides {home_domain!r}"
        )
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        governing = (
            remote_domains[rng.randrange(len(remote_domains))]
            if remote_domains and rng.random() < remote_fraction
            else home_domain
        )
        requests.append(
            RequestContext.simple(
                f"user-{rng.randrange(subjects)}",
                federated_resource_id(
                    governing, rng.randrange(resources_per_domain)
                ),
                "read" if rng.random() < read_fraction else "delete",
            )
        )
    return requests


class StalenessAudit:
    """Prices cache staleness against one mid-workload revocation.

    Used as the closed-loop driver's ``observer``: every completion for
    the watched subject is timestamped and classified against the
    revocation instant and the coherence window.  A *violation* is a
    grant completing after ``revoked_at + coherence_window`` — the
    paper's §3.2 "false positive" served from a cache the coherence
    machinery should already have cleaned.  Grants completing inside
    the window are the priced (allowed) staleness; grants before the
    revocation are normal service.

    Args:
        subject_id: the subject whose revocation is audited.
        coherence_window: simulated seconds after the revocation in
            which stale grants are tolerated (the swept strategy's
            propagation bound plus in-flight round-trip slack).
    """

    def __init__(self, subject_id: str, coherence_window: float) -> None:
        if coherence_window < 0:
            raise ValueError(
                f"coherence_window must be >= 0, got {coherence_window}"
            )
        self.subject_id = subject_id
        self.coherence_window = coherence_window
        self.revoked_at: float | None = None
        self.grants_before = 0
        self.denials_after = 0
        self.stale_grants_in_window = 0
        #: Completion times of post-window grants — the violations.
        self.violations: list[float] = []

    def mark_revoked(self, at: float) -> None:
        self.revoked_at = at

    def __call__(self, pep, request, result) -> None:
        if request is None or request.subject_id != self.subject_id:
            return
        now = pep.now
        if self.revoked_at is None or now < self.revoked_at:
            if result.granted:
                self.grants_before += 1
            return
        if not result.granted:
            self.denials_after += 1
        elif now <= self.revoked_at + self.coherence_window:
            self.stale_grants_in_window += 1
        else:
            self.violations.append(now)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def __repr__(self) -> str:
        return (
            f"StalenessAudit({self.subject_id!r}, "
            f"window={self.coherence_window}, "
            f"violations={self.violation_count})"
        )
