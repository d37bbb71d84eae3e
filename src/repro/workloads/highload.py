"""Closed-loop high-load driving of the batched decision fabric.

The request streams of :mod:`repro.workloads.generator` are *open loop*:
experiments decide when each event fires.  Saturation experiments need
the opposite — a fixed population of clients that each keep exactly one
request outstanding and submit the next the moment the previous one
completes.  Offered load is then set by the population size
(``concurrency``), and the measured decisions/second is the system's
actual capacity at that load, with queueing delay showing up as
submit→completion latency (experiment E16's three reported axes).

:func:`drive_closed_loop` is the one driver every closed-loop shape
runs on: one PEP, a whole domain of them, or several domains' fleets
grouped for per-domain reporting (experiments E16/E17/E18/E19).

The driver is fully event-driven on top of
:meth:`~repro.components.pep.PolicyEnforcementPoint.submit` (the
coalescing queue), so a single ``network.run`` carries the whole run
without growing the Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..components.fabric import QUEUE_LATENCY_SERIES, pep_latency_series
from ..simnet.metrics import LatencyStats
from ..xacml.context import RequestContext


@dataclass(frozen=True)
class ClosedLoopStats:
    """What one closed-loop run measured."""

    offered_concurrency: int
    submitted: int
    completed: int
    granted: int
    denied: int
    #: Simulated seconds from first submit to last completion.
    duration: float
    decisions_per_sec: float
    #: Every message the run put on the wire (queries, replies, policy
    #: fetches, PIP traffic) divided by completed decisions.
    messages_total: int
    messages_per_decision: float
    #: Submit→completion delay of requests that crossed the wire
    #: (cache/guard hits complete synchronously and are not sampled).
    queue_latency: LatencyStats


@dataclass(frozen=True)
class PepLoadStats:
    """One PEP's share of a multi-PEP closed-loop run."""

    name: str
    submitted: int
    completed: int
    granted: int
    denied: int
    #: This PEP's submit→completion delays (wire-crossing requests only).
    queue_latency: LatencyStats


@dataclass(frozen=True)
class GroupLoadStats:
    """One PEP group's share of a closed-loop run (e.g. one domain)."""

    name: str
    submitted: int
    completed: int
    granted: int
    denied: int
    #: Worst per-PEP p95 submit→completion delay inside this group.
    worst_pep_p95: float
    per_pep: tuple[PepLoadStats, ...]


@dataclass(frozen=True)
class ClosedLoopRun:
    """Everything :func:`drive_closed_loop` measured.

    ``fleet`` pools every PEP; ``per_pep`` breaks the run down per PEP;
    ``per_group`` (only when the driver was given group labels)
    regroups the per-PEP shares — the per-domain view of a federated
    run.
    """

    fleet: ClosedLoopStats
    per_pep: tuple[PepLoadStats, ...]
    per_group: tuple[GroupLoadStats, ...] = ()

    def group(self, name: str) -> GroupLoadStats:
        for stats in self.per_group:
            if stats.name == name:
                return stats
        raise KeyError(f"no group {name!r} in this run")


def drive_closed_loop(
    peps: Sequence,
    requests_by_pep: Sequence[Sequence[RequestContext]],
    concurrency,
    horizon: float = 300.0,
    observer=None,
    groups: Optional[Sequence[str]] = None,
) -> ClosedLoopRun:
    """THE closed-loop driver: one request sequence per PEP, one network.

    Every closed-loop shape parameterises this one implementation — a
    single PEP, a domain of PEPs behind one gateway, or several
    domains' fleets (label each PEP with its domain via ``groups``).
    Every PEP keeps its concurrency window of requests outstanding (the
    offered load is the sum of the windows), all windows refill
    event-driven off their own completions, and a single ``network.run``
    carries the whole run to quiescence.

    Args:
        peps: PEPs with batching enabled — sharing a
            :class:`~repro.components.fabric.DomainDecisionGateway` or
            each running its own dispatcher (the E17 baseline).
        requests_by_pep: one request sequence per PEP, same length as
            ``peps``; sequences may differ in length.
        concurrency: outstanding-request window *per PEP* — one int for
            a uniform fleet, or one int per PEP (how E17's fairness
            experiment makes one PEP chatty).
        horizon: simulated-seconds safety stop.
        observer: optional ``observer(pep, request, result)`` callback
            invoked on every completion at its simulated completion
            time — how staleness experiments timestamp per-subject
            outcomes without threading state through the driver.
        groups: optional group label per PEP (same length as ``peps``);
            fills ``per_group`` with one summary per distinct label, in
            first-appearance order.
    """
    if len(peps) != len(requests_by_pep):
        raise ValueError(
            f"{len(peps)} PEPs but {len(requests_by_pep)} request sequences"
        )
    if not peps:
        raise ValueError("need at least one PEP")
    if isinstance(concurrency, int):
        windows = [concurrency] * len(peps)
    else:
        windows = list(concurrency)
        if len(windows) != len(peps):
            raise ValueError(
                f"{len(peps)} PEPs but {len(windows)} concurrency windows"
            )
    if any(window < 1 for window in windows):
        raise ValueError(f"concurrency must be >= 1, got {windows}")
    if groups is not None and len(groups) != len(peps):
        raise ValueError(
            f"{len(peps)} PEPs but {len(groups)} group labels"
        )
    network = peps[0].network
    metrics = network.metrics
    started_at = network.now
    messages_before = metrics.messages_sent
    fleet_samples_before = metrics.sample_count(QUEUE_LATENCY_SERIES)
    per_pep_samples_before = [
        metrics.sample_count(pep_latency_series(pep.name)) for pep in peps
    ]
    shared = {"last_completion_at": started_at}

    def make_driver(pep, requests, window):
        state = {
            "pep": pep,
            "next": 0,
            "completed": 0,
            "granted": 0,
            "pumping": False,
        }

        def on_complete(result, request) -> None:
            state["completed"] += 1
            if result.granted:
                state["granted"] += 1
            shared["last_completion_at"] = network.now
            if observer is not None:
                observer(pep, request, result)
            pump()

        def pump() -> None:
            # Re-entrancy guard: a synchronous completion inside
            # submit must not recurse into the refill loop already
            # running above it.
            if state["pumping"]:
                return
            state["pumping"] = True
            try:
                while (
                    state["next"] < len(requests)
                    and state["next"] - state["completed"] < window
                ):
                    request = requests[state["next"]]
                    state["next"] += 1
                    # The request is always bound into the callback —
                    # observer or not — so every completion path hands
                    # the observer the matching (pep, request, result)
                    # triple (late binding here once made the observer
                    # see request=None on one branch).
                    pep.submit(
                        request,
                        lambda result, request=request: on_complete(
                            result, request
                        ),
                    )
            finally:
                state["pumping"] = False

        state["pump"] = pump
        return state

    states = [
        make_driver(pep, requests, window)
        for pep, requests, window in zip(
            peps, requests_by_pep, windows, strict=True
        )
    ]
    for state in states:
        state["pump"]()
    network.run(until=started_at + horizon)

    per_pep = tuple(
        PepLoadStats(
            name=state["pep"].name,
            submitted=state["next"],
            completed=state["completed"],
            granted=state["granted"],
            denied=state["completed"] - state["granted"],
            queue_latency=metrics.series_window(
                pep_latency_series(state["pep"].name), samples_before
            ),
        )
        for state, samples_before in zip(
            states, per_pep_samples_before, strict=True
        )
    )
    completed = sum(stats.completed for stats in per_pep)
    duration = max(shared["last_completion_at"] - started_at, 1e-9)
    messages_total = metrics.messages_sent - messages_before
    fleet = ClosedLoopStats(
        offered_concurrency=sum(windows),
        submitted=sum(stats.submitted for stats in per_pep),
        completed=completed,
        granted=sum(stats.granted for stats in per_pep),
        denied=sum(stats.denied for stats in per_pep),
        duration=duration,
        decisions_per_sec=completed / duration if completed else 0.0,
        messages_total=messages_total,
        messages_per_decision=(
            messages_total / completed if completed else float("inf")
        ),
        queue_latency=metrics.series_window(
            QUEUE_LATENCY_SERIES, fleet_samples_before
        ),
    )
    per_group: tuple[GroupLoadStats, ...] = ()
    if groups is not None:
        labels = list(dict.fromkeys(groups))  # first-appearance order
        per_group = tuple(
            _group_stats(
                label,
                tuple(
                    stats
                    for stats, owner in zip(per_pep, groups, strict=True)
                    if owner == label
                ),
            )
            for label in labels
        )
    return ClosedLoopRun(fleet=fleet, per_pep=per_pep, per_group=per_group)


def _group_stats(
    name: str, shares: tuple[PepLoadStats, ...]
) -> GroupLoadStats:
    return GroupLoadStats(
        name=name,
        submitted=sum(share.submitted for share in shares),
        completed=sum(share.completed for share in shares),
        granted=sum(share.granted for share in shares),
        denied=sum(share.denied for share in shares),
        worst_pep_p95=max(
            (share.queue_latency.p95 for share in shares), default=0.0
        ),
        per_pep=shares,
    )
