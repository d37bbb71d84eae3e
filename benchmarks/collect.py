"""Collect the per-PR performance trajectory into ``BENCH_pr.json``.

CI's ``bench-regression`` job runs this after the benchmark smoke pass,
gates the build on it (``check_regression.py`` against the committed
``BENCH_baseline.json``) and uploads the JSON as a workflow artifact,
so every PR records where the headline experiments stand:

* **E7a** — message sizes: the plain, signed and signed-and-encrypted
  query envelope in bytes;
* **E8a** — static modality-conflict scan: injected conflicts missed
  over the three generated corpora (pinned 0);
* **E10** — PDP discovery under churn: failed decisions of a static
  binding and of registry discovery (discovery pinned 0);
* **E11a** — replication under crash faults: failed probes per replica
  count (3 replicas pinned 0) and unauthorised grants (pinned 0);
* **E15** — revocation propagation: staleness window vs message cost;
* **E16** — per-PEP batched fabric: decisions/s, msgs/decision;
* **E17** — domain gateway vs the per-PEP baseline at equal load;
* **E18** — cross-domain federation vs per-PEP direct remote access;
* **E18c** — gateway-tier remote-decision cache (msgs/decision cut,
  zero post-coherence-window stale grants);
* **E18d** — TTL'd directory service vs the in-process baseline
  (misroutes re-forwarded, grant parity);
* **E19** — sharded PDP placement at 10^6 subjects: decisions/s,
  per-replica state cardinality, sharded-vs-unsharded decision
  mismatches (pinned 0);
* **E25** — static policy analysis: planted defects recovered exactly,
  adversarial witness replay (false positives pinned 0), clean-corpus
  scan (findings pinned 0);
* **E29a** — the refresh herd: bundle fetches per policy change per
  PDP (pinned 1.0) and the most refresh requests on the wire at once
  (pinned 1).

Runs everything in smoke dimensions (the module forces
``REPRO_BENCH_SMOKE=1`` before importing the benchmark modules, whose
sweep constants are bound at import time), so one pass takes seconds.
The simulation is deterministic and every experiment builds its own
worlds, which mint their own ids, so the recorded numbers are stable
across runs, machines and run orders — any drift is a real change.

Usage::

    PYTHONPATH=src python benchmarks/collect.py --output BENCH_pr.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

os.environ["REPRO_BENCH_SMOKE"] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def git_revision() -> str:
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "--short", "HEAD"],
                stderr=subprocess.DEVNULL,
            )
            .decode()
            .strip()
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def collect_e8() -> dict:
    """Static modality-conflict scan over E8a's generated corpora."""
    import test_e8_conflicts as e8

    return {
        "description": "modality-conflict scan on the analysis algebra, "
        "corpora of 20/50/100 generated policies with injected conflicts",
        "configs": {
            f"corpus_{size}": e8.scan_corpus(size, injected)
            for size, injected in e8.CORPORA
        },
    }


def collect_e10() -> dict:
    """Static binding vs registry discovery under PDP churn."""
    import test_e10_pdp_discovery as e10

    static_ok = e10.run_static()
    discovery_ok, dispatcher = e10.run_discovery()
    return {
        "description": f"{e10.PROBES} probes under alternating PDP crash "
        "windows in two domains",
        "configs": {
            "static": {"failed_decisions": e10.PROBES - static_ok},
            "discovery": {
                "failed_decisions": e10.PROBES - discovery_ok,
                "fallbacks_used": dispatcher.routing.passed_over,
            },
        },
    }


def collect_e11() -> dict:
    """Decision availability vs PDP replica count under crash faults."""
    import test_e11_replication as e11

    configs = {}
    for replicas in (1, 2, 3, 5):
        availability, wrong = e11.run_with_replicas(replicas)
        configs[f"r{replicas}"] = {
            "failed_probes": e11.PROBES - round(availability * e11.PROBES),
            "unauthorised_grants": wrong,
        }
    return {
        "description": f"{e11.PROBES} probes, crash process mtbf 6 s / "
        "mttr 3 s, heartbeat-ordered failover",
        "configs": configs,
    }


def collect_e15() -> dict:
    """Staleness vs overhead for the push and hybrid strategies."""
    import test_e15_revocation as e15

    strategies = {}
    for strategy in ("ttl-only", "push", "hybrid"):
        staleness, stats = e15.run_churn(
            strategy, cache_ttl=8.0, churn_interval=4.0
        )
        strategies[strategy] = {
            "mean_staleness_s": round(sum(staleness) / len(staleness), 3),
            "max_staleness_s": round(max(staleness), 3),
            "revocation_msgs_per_access": round(
                stats["revocation_msgs"] / stats["accesses"], 4
            ),
        }
    return {
        "description": "revocation propagation (cache TTL 8s, churn 4s)",
        "strategies": strategies,
    }


def collect_e16() -> dict:
    """Per-PEP batched fabric: the batch-1 baseline vs the full fabric."""
    import test_e16_batching as e16
    from repro.workloads import drive_closed_loop

    configs = {}
    for label, batch, replicas in (
        ("baseline_b1_r1", 1, 1),
        ("fabric_b8_r2", 8, 2),
    ):
        network, pep, pdps, dispatcher = e16.build_fabric(batch, replicas)
        stats = drive_closed_loop(
            [pep], [e16.request_mix(e16.EVENTS)], concurrency=8
        ).fleet
        configs[label] = {
            "decisions_per_sec": round(stats.decisions_per_sec, 1),
            "msgs_per_decision": round(stats.messages_per_decision, 4),
            "queue_p95_ms": round(stats.queue_latency.p95 * 1000, 2),
        }
    return {
        "description": "single-PEP coalescing + replica dispatch "
        f"({e16.EVENTS} closed-loop requests)",
        "configs": configs,
    }


def collect_e17() -> dict:
    """Domain gateway vs the per-PEP configuration at equal load."""
    import test_e17_gateway as e17

    configs = {}
    for label, gateway in (("per_pep", False), ("gateway", True)):
        network, peps, pdps, hub = e17.build_domain(
            pep_count=4, replicas=2, gateway=gateway
        )
        stats = e17.drive(network, peps)
        configs[label] = {
            "decisions_per_sec": round(stats.fleet.decisions_per_sec, 1),
            "msgs_per_decision": round(
                stats.fleet.messages_per_decision, 4
            ),
            "queue_p95_ms": round(
                stats.fleet.queue_latency.p95 * 1000, 2
            ),
        }
    configs["gateway"]["cross_pep_dedup"] = hub.cross_pep_deduplicated
    return {
        "description": "4 PEPs x 2 replicas at equal offered load "
        f"({e17.EVENTS} requests/PEP)",
        "configs": configs,
    }


def collect_e18() -> dict:
    """Federated vs per-PEP-direct cross-domain routing at equal load."""
    import test_e18_federation as e18

    configs = {}
    for label, mode in (("direct", "direct"), ("federated", "federated")):
        vo = e18.build_federated_vo(domains=2, replicas=1, mode=mode)
        stats = e18.drive(vo.network, vo.peps_by_domain, remote_fraction=0.5)
        configs[label] = {
            "decisions_per_sec": round(stats.fleet.decisions_per_sec, 1),
            "msgs_per_decision": round(
                stats.fleet.messages_per_decision, 4
            ),
            "queue_p95_ms": round(
                stats.fleet.queue_latency.p95 * 1000, 2
            ),
        }
        if mode == "federated":
            configs[label]["forwarded_batches"] = sum(
                hub.forwarded_batches_sent for hub in vo.hubs
            )
    return {
        "description": "2 domains x 3 PEPs x 1 replica, remote fraction "
        f"0.5 ({e18.EVENTS} requests/PEP)",
        "configs": configs,
    }


def collect_e18_cache() -> dict:
    """Gateway-tier remote-decision cache: cost cut + priced staleness.

    One hot-subject grid cell (remote fraction 0.5) per cache setting,
    each with the mid-run revocation the staleness audit prices.  The
    violations metric is the PR 5 headline: grants of the revoked
    subject completing after the coherence window (must stay 0).
    """
    import test_e18_federation as e18

    configs = {}
    for label, cache_ttl in (
        ("cache_off", 0.0),
        ("cache_on", e18.COVERING_TTL),
    ):
        stats, hubs, audit = e18.run_cache_cell(0.5, cache_ttl)
        cache_stats = [hub.remote_cache.snapshot() for hub in hubs]
        lookups = sum(s["hits"] + s["misses"] for s in cache_stats)
        configs[label] = {
            "decisions_per_sec": round(stats.fleet.decisions_per_sec, 1),
            "msgs_per_decision": round(stats.fleet.messages_per_decision, 4),
            "requests_forwarded": sum(
                hub.requests_forwarded for hub in hubs
            ),
            "cache_hits": sum(hub.remote_cache_hits for hub in hubs),
            "hit_ratio": round(
                sum(s["hits"] for s in cache_stats) / lookups, 4
            )
            if lookups
            else 0.0,
            "stale_grants_in_window": audit.stale_grants_in_window,
            "stale_grant_violations": audit.violation_count,
        }
    return {
        "description": "gateway remote-decision cache at remote fraction "
        f"0.5, {e18.GRID_SUBJECTS} hot subjects, revocation at "
        f"t={e18.REVOKE_AT}s, coherence window {e18.COHERENCE_WINDOW}s "
        f"({e18.GRID_EVENTS} requests/PEP)",
        "configs": configs,
    }


def collect_e18_directory() -> dict:
    """Directory service staleness: misroutes repaired, grants intact."""
    import test_e18_federation as e18

    configs = {}
    rows = (
        ("inproc", dict(directory_mode="inproc")),
        (
            "service_ttl_long",
            dict(
                directory_mode="service",
                directory_ttl=e18.DIRECTORY_TTLS["long"],
            ),
        ),
    )
    for label, kwargs in rows:
        network, stats, hubs, clients = e18.run_directory_profile_row(
            **kwargs
        )
        configs[label] = {
            "msgs_per_decision": round(stats.fleet.messages_per_decision, 4),
            "granted": stats.fleet.granted,
            "misroutes_detected": sum(
                hub.misroutes_detected for hub in hubs
            ),
            "misroutes_reforwarded": sum(
                hub.misroutes_reforwarded for hub in hubs
            ),
            "lookup_msgs": network.metrics.sent_by_kind.get(
                e18.LOOKUP_ACTION, 0
            ),
        }
    configs["grant_parity"] = int(
        configs["inproc"]["granted"]
        == configs["service_ttl_long"]["granted"]
    )
    return {
        "description": "TTL'd directory service vs in-process baseline, "
        f"governance transfer at t={e18.TRANSFER_AT}s",
        "configs": configs,
    }


def collect_e24() -> dict:
    """Decision-path tracing: latency decomposition + overhead guard.

    The E17 gateway tier runs twice from identical wire-ID state —
    sampling off, then 100% — so ``extra_msgs`` is an exact count of
    messages tracing added (the design says zero, and the regression
    gate's zero-baseline rule makes *any* extra message a failure).
    The decomposition means are the attributable headline: where the
    per-decision millisecond goes at this tier.
    """
    import test_e24_tracing as e24
    from repro.observability import decomposition_table

    off_network, off = e24.run_e17_tier(0.0)
    on_network, on = e24.run_e17_tier(1.0)
    table = decomposition_table(on_network.tracer.spans, tier="e17")
    return {
        "description": "tracing at the E17 gateway tier: sampling off "
        "vs 100% from identical wire-ID state, plus per-decision "
        "latency decomposition means",
        "configs": {
            "sampling_off": {
                "decisions_per_sec": round(off["decisions_per_sec"], 1),
                "msgs_per_decision": round(off["msgs_per_decision"], 4),
            },
            "sampling_full": {
                "decisions_per_sec": round(on["decisions_per_sec"], 1),
                "msgs_per_decision": round(on["msgs_per_decision"], 4),
                "spans": len(on_network.tracer.spans),
                "extra_msgs": on["msgs_total"] - off["msgs_total"],
                "extra_bytes": on["bytes_sent"] - off["bytes_sent"],
            },
            "decomposition": {
                key: table[key]
                for key in (
                    "decisions",
                    "e2e_ms",
                    "queue_ms",
                    "batch_ms",
                    "wire_ms",
                    "pdp_wait_ms",
                    "signature_ms",
                    "pdp_eval_ms",
                    "demux_ms",
                )
            },
        },
    }


def collect_e19() -> dict:
    """Sharded placement at the million-subject tier.

    The population is streaming, so the 10^6 tier costs the same per
    event as the smoke tiers — the headline really is measured at a
    million subjects even in the smoke pass.  Mismatches between the
    sharded and unsharded tiers' decisions are the correctness pin
    (zero baseline: the gate fails on any non-zero value).
    """
    import test_e19_population as e19

    subjects = 1_000_000
    sharded_run, sharded_decisions, sharded_state = e19.run_tier(
        subjects, sharded=True
    )
    unsharded_run, unsharded_decisions, unsharded_state = e19.run_tier(
        subjects, sharded=False
    )
    mismatches = sum(
        1
        for key, granted in sharded_decisions.items()
        if unsharded_decisions.get(key) != granted
    )
    configs = {}
    for label, run, state in (
        ("sharded", sharded_run, sharded_state),
        ("unsharded", unsharded_run, unsharded_state),
    ):
        configs[label] = {
            "decisions_per_sec": round(run.fleet.decisions_per_sec, 1),
            "queue_p95_ms": round(run.fleet.queue_latency.p95 * 1000, 2),
            "max_replica_state": state["max"],
            "fleet_state": state["fleet"],
        }
    configs["touched_subjects"] = sharded_state["touched"]
    configs["mismatches"] = mismatches
    return {
        "description": f"sharded vs stateless placement at {subjects} "
        f"subjects, {e19.REPLICAS} replicas x {e19.PEPS} PEPs "
        f"({e19.EVENTS_PER_PEP * e19.PEPS} closed-loop requests)",
        "configs": configs,
    }


def collect_e25() -> dict:
    """Static policy analysis: exact recovery, zero false positives.

    Everything here is a deterministic count, so every headline is a
    zero-baseline pin: a missed planted defect, an unexpected finding
    on a clean corpus, or a witness that fails its adversarial replay
    each fails the gate outright.
    """
    import test_e25_policy_analysis as e25
    from repro.xacml.analysis import analyze

    gt_store, gt_expected = e25.ground_truth_store()
    gt_reported = {
        (f.kind, f.location)
        for f in analyze(gt_store, include_validation=False).findings
    }
    inj_store, inj_expected = e25.injected_corpus_store()
    inj_reported = {
        (f.kind, f.location)
        for f in analyze(inj_store, include_validation=False).findings
    }
    checked, false_positives = e25.count_false_positive_witnesses(
        e25.differential_shapes()
    )
    clean_tier = e25.POLICY_TIERS[0]
    clean_report, clean_wall = e25.run_scaling_tier(clean_tier)
    return {
        "description": "static analyzer: planted-defect recovery, "
        "adversarial witness replay and clean-corpus scan",
        "configs": {
            "ground_truth": {
                "expected": len(gt_expected),
                "missed": len(gt_expected - gt_reported),
                "unexpected": len(gt_reported - gt_expected),
            },
            "injected_corpus": {
                "expected": len(inj_expected),
                "missed": len(inj_expected - inj_reported),
                "unexpected": len(inj_reported - inj_expected),
            },
            "differential": {
                "witnessed_findings": checked,
                "false_positive_witnesses": false_positives,
            },
            "clean_corpus": {
                "policies": clean_tier,
                "findings": len(clean_report.findings),
                "pairs_considered": clean_report.stats.pairs_considered,
                "wall_s": round(clean_wall, 3),
            },
        },
    }


def collect_e7() -> dict:
    """Bytes of the sample query envelope under each protection."""
    import test_e7_message_overhead as e7

    envelopes, _ = e7.sample_envelopes(*e7.signing_identity())
    return {
        "description": "one XACML decision query in a SOAP envelope: "
        "plain, WS-Security signed, signed and encrypted",
        "configs": {
            name: {"wire_bytes": envelope.wire_size}
            for name, envelope in envelopes.items()
        },
    }


def collect_e29() -> dict:
    """The refresh herd: what one policy change costs a loaded PDP."""
    import test_e29_control_plane as e29

    configs = {
        f"window_{window}": {
            figure: round(value, 4) for figure, value in e29.run_cell(window).items()
        }
        for window in e29.WINDOWS
    }
    return {
        "description": f"{e29.PEPS} PEPs behind a gateway, one subscribed "
        f"PDP, all {e29.RESOURCES} policies republished every "
        f"{e29.CHANGE_EVERY} completions ({e29.CHANGES} changes)",
        "configs": configs,
    }


def collect() -> dict:
    summary = {
        "schema": 2,
        "revision": git_revision(),
        "smoke": True,
        "experiments": {
            "E7a": collect_e7(),
            "E8a": collect_e8(),
            "E10": collect_e10(),
            "E11a": collect_e11(),
            "E15": collect_e15(),
            "E16": collect_e16(),
            "E17": collect_e17(),
            "E18": collect_e18(),
            "E18c": collect_e18_cache(),
            "E18d": collect_e18_directory(),
            "E19": collect_e19(),
            "E24": collect_e24(),
            "E25": collect_e25(),
            "E29a": collect_e29(),
        },
    }
    e16 = summary["experiments"]["E16"]["configs"]
    e17 = summary["experiments"]["E17"]["configs"]
    e18 = summary["experiments"]["E18"]["configs"]
    e18c = summary["experiments"]["E18c"]["configs"]
    # The headline trajectory numbers, hoisted for easy diffing per PR.
    # check_regression.py gates CI on these: *_decisions_per_sec must
    # not drop, *_msgs_per_decision and staleness must not rise, by
    # more than its tolerance.
    summary["headline"] = {
        "fabric_decisions_per_sec": e16["fabric_b8_r2"]["decisions_per_sec"],
        "fabric_msgs_per_decision": e16["fabric_b8_r2"]["msgs_per_decision"],
        "gateway_decisions_per_sec": e17["gateway"]["decisions_per_sec"],
        "gateway_msgs_per_decision": e17["gateway"]["msgs_per_decision"],
        "federation_decisions_per_sec": e18["federated"][
            "decisions_per_sec"
        ],
        "federation_msgs_per_decision": e18["federated"][
            "msgs_per_decision"
        ],
        "gateway_cache_msgs_per_decision": e18c["cache_on"][
            "msgs_per_decision"
        ],
        "gateway_cache_stale_grants": e18c["cache_on"][
            "stale_grant_violations"
        ],
        "push_staleness_s": summary["experiments"]["E15"]["strategies"][
            "push"
        ]["mean_staleness_s"],
    }
    e19 = summary["experiments"]["E19"]["configs"]
    summary["headline"].update(
        {
            "e19_decisions_per_sec_1e6": e19["sharded"][
                "decisions_per_sec"
            ],
            # Zero baseline: any decision that sharding changes fails
            # the gate outright.
            "e19_sharded_vs_unsharded_mismatches": e19["mismatches"],
        }
    )
    e24 = summary["experiments"]["E24"]["configs"]
    summary["headline"].update(
        {
            # Zero baseline: the gate's zero-cost rule turns any extra
            # traced message into an automatic failure.
            "tracing_extra_msgs": e24["sampling_full"]["extra_msgs"],
            "tracing_decisions_per_sec": e24["sampling_full"][
                "decisions_per_sec"
            ],
            "tracing_e2e_ms": e24["decomposition"]["e2e_ms"],
        }
    )
    e25 = summary["experiments"]["E25"]["configs"]
    summary["headline"].update(
        {
            # All zero baselines: any missed planted defect, unexpected
            # finding or lying witness fails the gate outright.
            "e25_false_positive_witnesses": e25["differential"][
                "false_positive_witnesses"
            ],
            "e25_ground_truth_missed": e25["ground_truth"]["missed"]
            + e25["injected_corpus"]["missed"],
            "e25_unexpected_findings": e25["ground_truth"]["unexpected"]
            + e25["injected_corpus"]["unexpected"]
            + e25["clean_corpus"]["findings"],
        }
    )
    # Zero baseline: an injected conflict the scan misses is lost recall.
    summary["headline"]["e8_injected_missed"] = sum(
        corpus["injected"] - corpus["recovered"]
        for corpus in summary["experiments"]["E8a"]["configs"].values()
    )
    e29 = summary["experiments"]["E29a"]["configs"].values()
    summary["headline"].update(
        {
            # Pins, not trends: a second bundle per change, or a second
            # refresh on the wire beside the first, is the herd growing back.
            "e29_fetches_per_change_per_pdp": max(
                cell["fetches_per_change"] for cell in e29
            ),
            "e29_refresh_nesting_max": max(
                cell["refresh_nesting_max"] for cell in e29
            ),
        }
    )
    e11 = summary["experiments"]["E11a"]["configs"]
    summary["headline"].update(
        {
            # Zero baselines: a discovering PEP or a 3-replica system
            # that fails a decision has lost its failover; a grant to
            # the unauthorised subject is the stack failing open.
            "e10_discovery_failed_decisions": summary["experiments"]["E10"][
                "configs"
            ]["discovery"]["failed_decisions"],
            "e11_failed_probes_r3": e11["r3"]["failed_probes"],
            "e11_unauthorised_grants": sum(
                cell["unauthorised_grants"] for cell in e11.values()
            ),
        }
    )
    summary["headline"].update(
        {
            f"e7_{name}_envelope_bytes": cell["wire_bytes"]
            for name, cell in summary["experiments"]["E7a"]["configs"].items()
        }
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_pr.json",
        help="where to write the JSON summary (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    summary = collect()
    with open(args.output, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {args.output}")
    print(json.dumps(summary["headline"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
