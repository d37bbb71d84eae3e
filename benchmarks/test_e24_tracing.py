"""E24 — decision-path tracing across the fabric: spans, decomposition, audits.

Paper context: a dependable access-control fabric is only operable if
its latency and routing behaviour are *attributable* — when a decision
is slow or lands in the wrong domain, operators need to know which
tier (enforcement queue, batch accumulation, wire, decision service,
demux) is responsible, without the observation machinery itself
perturbing the system it observes.  This experiment exercises the
:mod:`repro.observability` tracer across the three decision-path
tiers grown so far and pins both halves of that contract:

* **attribution** — per-decision causal span trees whose phase
  durations *partition* the submit→completion interval: queue wait,
  batch accumulation, wire time (split into PDP queueing, envelope
  signature overhead and evaluation via the envelope's service span)
  and demux, reconciling to the end-to-end latency within ±1 virtual
  millisecond for every traced decision, plus root-to-leaf critical
  paths through the batched fan-in;
* **zero perturbation** — tracing is metadata-only (context rides
  message *headers*, which the wire model excludes from payload
  bytes): with sampling off the E16–E18 headline numbers are
  bit-identical to runs that never touched the tracer, and with 100%
  sampling message counts, wire bytes and virtual-time durations are
  *identical* — spans are the only difference;
* **trace-query audits** — the revocation-staleness audit (E18c) and
  the misroute/forwarding accounting (E18d) re-derived purely from
  spans agree exactly with the ground-truth observers and counters.

Each tier runner builds a fresh world, and a world mints its own wire
ids (message, query, batch and assertion ids on its ``Network``,
certificate serials on its ``KeyStore``): the ids embedded in XML
payloads start over with every build, so the off-vs-on comparison is
exact with no reset, whatever ran earlier in the process.

``REPRO_BENCH_SMOKE=1`` shrinks the driven workloads (via the E16–E18
module constants, bound at their import) to CI-sized passes.
"""

import os

from repro.bench import Experiment
from repro.observability import (
    critical_path,
    decompose,
    decomposition_table,
    forwarding_report,
    misroute_accounting,
    rederive_staleness,
)
from repro.workloads import StalenessAudit

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Per-decision reconciliation bar: |phase sum − end-to-end| in
#: virtual seconds.  The tracer's phase boundaries partition the
#: interval by construction, so the observed error is 0.0; the
#: tolerance exists to keep the assertion meaningful, not loose.
RECONCILE_TOLERANCE = 0.001


def _headline(network, fleet) -> dict:
    """The tier-independent numbers the overhead contract is judged on."""
    return {
        "completed": fleet.completed,
        "granted": fleet.granted,
        "duration": fleet.duration,
        "decisions_per_sec": fleet.decisions_per_sec,
        "msgs_total": fleet.messages_total,
        "msgs_per_decision": fleet.messages_per_decision,
        "bytes_sent": network.metrics.bytes_sent,
    }


def run_e16_tier(sample_rate: float):
    """Single-PEP coalescing fabric (E16's headline configuration)."""
    import test_e16_batching as e16

    network, pep, pdps, dispatcher = e16.build_fabric(8, 2)
    network.tracer.sample_rate = sample_rate
    stats = e16.drive(pep, e16.request_mix(e16.EVENTS), concurrency=8)
    return network, _headline(network, stats)


def run_e17_tier(sample_rate: float):
    """Many-PEP domain gateway (E17's headline configuration)."""
    import test_e17_gateway as e17

    network, peps, pdps, hub = e17.build_domain(
        pep_count=4, replicas=2, gateway=True
    )
    network.tracer.sample_rate = sample_rate
    stats = e17.drive(network, peps)
    return network, _headline(network, stats.fleet)


def run_e18_tier(sample_rate: float):
    """Cross-domain federation (E18's headline configuration)."""
    import test_e18_federation as e18

    vo = e18.build_federated_vo(2, 1)
    network = vo.network
    network.tracer.sample_rate = sample_rate
    stats = e18.drive(network, vo.peps_by_domain, remote_fraction=0.5)
    return network, _headline(network, stats.fleet)


TIERS = (
    ("E16 fabric b8/r2", run_e16_tier),
    ("E17 gateway 4x2", run_e17_tier),
    ("E18 federated 2x1", run_e18_tier),
)


def test_e24_latency_decomposition():
    """Phase spans partition every decision's latency, tier by tier.

    100% sampling across the three decision-path tiers; acceptance is
    per-decision: the seven phase durations of each traced decision
    sum back to its submit→completion latency within
    ``RECONCILE_TOLERANCE``, and the critical path of a wire-crossing
    decision descends through its envelope into the serving PDP.
    """
    experiment = Experiment(
        exp_id="E24",
        title="Decision-path latency decomposition (100% sampling)",
        paper_claim="a dependable fabric must make its decision "
        "latency attributable tier by tier — queue, batch, wire, "
        "decision service, demux — so operators can see *where* an "
        "architecture spends its time, not just how much",
        columns=[
            "tier",
            "decisions",
            "e2e_ms",
            "queue_ms",
            "batch_ms",
            "wire_ms",
            "pdp_wait_ms",
            "signature_ms",
            "pdp_eval_ms",
            "demux_ms",
        ],
    )
    worst_error = 0.0
    for label, runner in TIERS:
        network, headline = runner(1.0)
        spans = network.tracer.spans
        rows = decompose(spans)
        assert rows, f"{label}: 100% sampling produced no decision rows"
        tier_worst = max(abs(row.phase_sum - row.e2e) for row in rows)
        worst_error = max(worst_error, tier_worst)
        assert tier_worst <= RECONCILE_TOLERANCE, (
            f"{label}: phase sums drifted {tier_worst * 1000:.3f} ms "
            "from end-to-end latency"
        )
        # Traced decisions (each root's ``waiters`` counts the
        # submitter plus its coalesced joiners) account for every
        # completion that crossed the queueing fabric; sync
        # completions (guard/cache) are the rest.
        covered = sum(row.waiters for row in rows)
        assert covered <= headline["completed"]
        wired = [row for row in rows if row.wire > 0]
        assert wired, f"{label}: no decision crossed the wire?"
        path = [span.name for span in critical_path(spans, wired[0].trace_id)]
        assert "pdp.service" in path, (
            f"{label}: critical path {path} never reached a PDP"
        )
        table = decomposition_table(spans, tier=label)
        experiment.add_row(
            label,
            table["decisions"],
            table["e2e_ms"],
            table["queue_ms"],
            table["batch_ms"],
            table["wire_ms"],
            table["pdp_wait_ms"],
            table["signature_ms"],
            table["pdp_eval_ms"],
            table["demux_ms"],
        )
    experiment.note(
        "columns are per-decision means; queue = submit→flush, batch = "
        "flush→envelope sent, wire = in flight (split into PDP queue "
        "wait, per-envelope signature overhead and evaluation via the "
        "envelope's service span), demux = reply→completion callback"
    )
    experiment.note(
        f"worst per-decision |phase sum − e2e| across all tiers: "
        f"{worst_error * 1000:.4f} ms (bar: "
        f"{RECONCILE_TOLERANCE * 1000:.1f} ms)"
    )
    experiment.show()


def test_e24_tracing_overhead_free():
    """Tracing never moves a headline: metadata-only by construction.

    Each tier runs twice from identical wire-ID state — sampling off,
    then 100% — and every headline the E16–E18 experiments report must
    be *identical*: message counts, wire bytes, virtual duration,
    grants, decisions/second.  Spans are the only difference.
    """
    experiment = Experiment(
        exp_id="E24b",
        title="Tracing overhead: sampling off vs 100%",
        paper_claim="observation must not perturb the fabric: trace "
        "context rides message headers (outside the modelled payload), "
        "so full sampling changes no message, byte or timing",
        columns=[
            "tier",
            "msgs_off",
            "msgs_on",
            "bytes_off",
            "bytes_on",
            "decisions_per_sec",
            "spans",
        ],
    )
    for label, runner in TIERS:
        off_network, off = runner(0.0)
        on_network, on = runner(1.0)
        assert not off_network.tracer.spans, (
            f"{label}: spans emitted with sampling off"
        )
        assert on_network.tracer.spans, (
            f"{label}: no spans emitted at 100% sampling"
        )
        for key in (
            "completed",
            "granted",
            "msgs_total",
            "bytes_sent",
            "duration",
            "decisions_per_sec",
        ):
            assert on[key] == off[key], (
                f"{label}: tracing moved {key}: "
                f"{off[key]!r} -> {on[key]!r}"
            )
        experiment.add_row(
            label,
            off["msgs_total"],
            on["msgs_total"],
            off["bytes_sent"],
            on["bytes_sent"],
            round(on["decisions_per_sec"], 1),
            len(on_network.tracer.spans),
        )
    experiment.note(
        "equality is exact (==), not approximate: durations and bytes "
        "are bit-identical because the runs differ only in span "
        "recording; wire-ID counters are rewound before each run so "
        "the comparison is not polluted by ID-length drift"
    )
    experiment.show()


def test_e24_trace_audit_staleness():
    """Spans alone re-derive the E18c staleness audit, count for count.

    The E18c covering-TTL cache cell (hot subjects, mid-run
    revocation) runs with 100% sampling and the ground-truth
    :class:`StalenessAudit` observing completions; the span-only
    re-derivation must agree exactly on every classification bucket —
    decision roots carry subject, grant, completion time and coalesced
    waiters, which is all the audit ever used.
    """
    import test_e18_federation as e18

    vo = e18.build_federated_vo(
        2, 1, remote_cache_ttl=e18.COVERING_TTL, coherence=True
    )
    network, hubs = vo.network, vo.gateways
    network.tracer.sample_rate = 1.0
    audit = StalenessAudit(e18.REVOKED_SUBJECT, e18.COHERENCE_WINDOW)
    e18.schedule_revocation(network, vo.paps, vo.authority, audit)
    stats = e18.drive(
        network,
        vo.peps_by_domain,
        0.5,
        events=e18.GRID_EVENTS,
        subjects=e18.GRID_SUBJECTS,
        read_fraction=1.0,
        observer=audit,
    )
    assert stats.fleet.completed == 2 * e18.PEPS_PER_DOMAIN * e18.GRID_EVENTS
    assert audit.revoked_at is not None
    assert sum(hub.remote_cache_hits for hub in hubs) > 0, (
        "cache never hit — the cell is not exercising the cached path"
    )
    derived = rederive_staleness(
        network.tracer.spans,
        e18.REVOKED_SUBJECT,
        audit.revoked_at,
        e18.COHERENCE_WINDOW,
    )
    assert derived.grants_before == audit.grants_before
    assert derived.denials_after == audit.denials_after
    assert derived.stale_grants_in_window == audit.stale_grants_in_window
    assert derived.violation_count == audit.violation_count
    # The cell's own acceptance bar still holds under full sampling.
    assert audit.violation_count == 0
    print(
        f"\nE24c: span-derived staleness == observer: "
        f"{derived.grants_before} grants before, "
        f"{derived.denials_after} denials after, "
        f"{derived.stale_grants_in_window} stale-in-window, "
        f"{derived.violation_count} violations"
    )


def test_e24_trace_audit_misroutes():
    """Spans alone re-derive E18d's misroute/forwarding accounting.

    The stale-directory row (long TTL, no push, mid-run governance
    transfer) with 100% sampling: serve-span attributes summed across
    the run must equal the fabric-wide counters and gateway instance
    counters for misroutes, re-forwards, TTL denials and unknown
    domains — and the per-trace forwarding chains must show no
    domain-level loop.
    """
    import test_e18_federation as e18

    vo = e18.build_federated_vo(
        directory_mode="service",
        directory_ttl=e18.DIRECTORY_TTLS["long"],
        moving_resource=True,
    )
    network, hubs = vo.network, vo.gateways
    network.tracer.sample_rate = 1.0
    network.loop.schedule(e18.TRANSFER_AT, vo.transfer)
    stats = e18.drive(network, vo.peps_by_domain, 0.5)
    assert stats.fleet.completed == 2 * e18.PEPS_PER_DOMAIN * e18.EVENTS
    spans = network.tracer.spans
    accounting = misroute_accounting(spans)
    counters = network.metrics.counters
    assert accounting["misroute"] > 0, (
        "the stale-directory row misrouted nothing — the audit has "
        "nothing to cross-check"
    )
    assert accounting["misroute"] == counters.get("federation.misroute", 0)
    assert accounting["misroute"] == sum(
        hub.misroutes_detected for hub in hubs
    )
    assert accounting["reforwarded"] == sum(
        hub.misroutes_reforwarded for hub in hubs
    )
    assert accounting["ttl_expired"] == counters.get(
        "federation.ttl_expired", 0
    )
    assert accounting["unknown_domain"] == counters.get(
        "federation.unknown_domain", 0
    )
    assert accounting["recheck_failed"] == counters.get(
        "federation.recheck_failed", 0
    )
    assert accounting["serves"] == sum(
        hub.forwarded_batches_served for hub in hubs
    )
    report = forwarding_report(spans)
    assert report.serves == accounting["serves"]
    assert report.loops == (), (
        f"forwarding chains revisited a domain: {report.loops}"
    )
    # Every repaired misroute is a ≥2-serve chain, so the deepest
    # chain must have forwarded beyond the first serving gateway.
    assert report.max_hops >= 2
    print(
        f"\nE24d: span-derived routing == counters: "
        f"{accounting['serves']} serves, {accounting['misroute']} "
        f"misroutes, {accounting['reforwarded']} re-forwarded, "
        f"max chain depth {report.max_hops}, no loops"
    )
