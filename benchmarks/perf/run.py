"""Host-cost benchmark of the authorisation fabric: one command, every metric.

    python3 benchmarks/perf/run.py                      # all four workloads
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --check-determinism NAME

One workload runs per process (re-executed with ``PYTHONHASHSEED=0``):
module-global ID counters make a second world in the same process a
different world on the wire.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` lists.  Exit status is non-zero
when any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 11
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Share of ``--seconds``, and of the pinned prefix, a traced run gives
#: each of its two drives; the replay probes take about three seconds more.
TRACE_DRIVE_SHARE = 0.3
SIMULATED_E2E = (
    "virtual_decisions_per_s",
    "virtual_latency_mean_ms",
    "wire_messages_per_decision",
    "wire_bytes_per_decision",
)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _import_fabric() -> None:
    """Put the repository's ``src`` on the path (the harness modules next
    to this script already are, and need ``repro`` to import)."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(
            f"run.py: no program to measure: {source / 'repro'} is missing"
        )
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def _workload(name: str, share: float):
    """The named workload with its pinned prefix cut to ``share`` of the
    full one, as a shorter measured phase needs (one chunk at least)."""
    from worlds import WORKLOADS

    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, pinned=max(workload.chunk, int(workload.pinned * share))
    )


def _cost_metrics(drive) -> tuple[float, float]:
    from harness import percentile

    costs = drive.meter.chunk_costs_cu()
    if not costs:
        raise SystemExit(
            "run.py: the measured phase ended before one full chunk; "
            "give it more --seconds or --decisions"
        )
    return statistics.median(costs), percentile(costs, 0.9)


def run_end_to_end(
    name: str,
    seed: int,
    seconds: Optional[float],
    decisions: Optional[int],
    scale: float = 1.0,
    out_dir: Path = OUT_DIR,
) -> dict:
    """The untraced run: the end-to-end metrics of one workload."""
    import harness
    from layers import PhaseSpans, write_out
    from verify import verify

    workload = _workload(name, min(scale, 1.0))
    phases = PhaseSpans()
    repeats = SETUP_REPEATS if scale >= 1.0 else 1
    with phases.span("generate"):
        inputs = workload.inputs(seed, scale)
    with phases.span("setup", repeats=repeats):
        ready = harness.set_up(workload, seed, inputs, repeats)
    with phases.span("drive"):
        drive = harness.drive(
            workload, ready.world, ready.feeds(decisions), seconds=seconds
        )
    with phases.span("verify"):
        verdict = verify(ready.world, drive)
    p50, p90 = _cost_metrics(drive)
    metrics = {
        "setup_s": ready.reference_s,
        "decision_cost_cu_p50": p50,
        "decision_cost_cu_p90": p90,
        "virtual_decisions_per_s": drive.virtual_decisions_per_s,
        "virtual_latency_mean_ms": drive.virtual_latency.mean * 1000.0,
        "wire_messages_per_decision": drive.messages_per_decision,
        "wire_bytes_per_decision": drive.bytes_per_decision,
        "peak_rss_mib": drive.peak_rss_mib,
    }
    write_out(out_dir, f"{name}.seed{seed}.e2e", phases, [])
    return {
        "verdict": verdict,
        "metrics": metrics,
        "chunks": len(drive.meter.chunk_cpu),
        "pinned": drive.pinned,
        "short": seconds is not None and drive.pinned < workload.pinned,
    }


def _attributed_cu(
    probed: dict,
    counts: dict,
    sync: bool,
    reach_pdp: float,
    messages_per_decision: float,
) -> float:
    """What the probes explain of one decision's cost, in cu.

    Each probe's cost times how often a decision needs that layer here:
    the key and a cache lookup always, the wire codec and the engine for
    the share of decisions that reach a PDP, the simulator per event and
    per message.  Fabric bookkeeping has no probe, so this stays under 1.
    """
    cache_share = counts["components.pep.cache_hit_share"]
    if sync:
        wire = probed["saml.single.roundtrip_cu"] + 2 * (
            probed["wsvc.ws_security.secure_cu"]
            + probed["wsvc.ws_security.verify_cu"]
        )
    else:
        wire = (
            probed["saml.batch_query.encode_cu_per_req"]
            + probed["saml.batch_query.decode_cu_per_req"]
            + probed["saml.batch_statement.encode_cu_per_req"]
            + probed["saml.batch_statement.decode_cu_per_req"]
        )
    return (
        probed["xacml.context.cache_key_cu"]
        + cache_share * probed["components.cache.get_cu"]
        + reach_pdp
        * (
            wire
            + probed["xacml.engine.evaluate_batch_cu_per_req"]
            + (probed["components.cache.put_cu"] if cache_share else 0.0)
        )
        + counts["simnet.events_per_decision"] * probed["simnet.event_cu"]
        + messages_per_decision * probed["simnet.transmit_cu"]
    )


def run_traced(
    name: str,
    seed: int,
    seconds: Optional[float],
    decisions: Optional[int],
    scale: float = 1.0,
    out_dir: Path = OUT_DIR,
) -> dict:
    """The traced run: boundary counts, profile, waiting, replay probes."""
    import harness
    from boundary import boundary_counts, raw_counters
    from layers import PhaseSpans, bucket_profile, virtual_shares, write_out
    from probes import run_probes
    from verify import verify
    from worlds import spare_policies

    workload = _workload(name, min(scale, 1.0) * TRACE_DRIVE_SHARE)
    phases = PhaseSpans()
    drive_seconds = None if seconds is None else seconds * TRACE_DRIVE_SHARE
    with phases.span("generate"):
        inputs = workload.inputs(seed, scale)

    # 1. Untraced drive: boundary counts and the cost tracing is set against.
    with phases.span("setup", traced=False):
        ready = harness.set_up(workload, seed, inputs)
    world = ready.world
    before = raw_counters(world)
    with phases.span("drive", traced=False):
        plain = harness.drive(
            workload, world, ready.feeds(decisions), seconds=drive_seconds
        )
    with phases.span("verify"):
        verdict = verify(world, plain)
    plain_p50, _ = _cost_metrics(plain)
    after = raw_counters(world)
    completed = plain.completed
    counts = boundary_counts(
        world, before, after, completed, plain.events, plain.meter.log.requests
    )

    # 2. Traced drive in a fresh world: Tracer at rate 1 under cProfile.
    with phases.span("setup", traced=True):
        traced_ready = harness.set_up(workload, seed, inputs)
    traced_world = traced_ready.world
    traced_world.network.tracer.sample_rate = 1.0
    profile = cProfile.Profile()
    with phases.span("drive", traced=True):
        traced = harness.drive(
            workload,
            traced_world,
            traced_ready.feeds(decisions),
            seconds=drive_seconds,
            profiler=profile,
        )
    traced_p50, _ = _cost_metrics(traced)
    spans = traced_world.network.tracer.spans
    layered = bucket_profile(profile, traced.completed, str(HERE))
    waiting = virtual_shares(spans)
    waiting["virtual.latency_p95_ms"] = plain.virtual_latency.p95 * 1000.0

    # 3. Replay probes on what the traced drive really handled.
    batch_size = max(1, round(counts["components.fabric.requests_per_envelope"]))
    with phases.span("probes"):
        probed = run_probes(
            traced.meter.log.requests,
            batch_size,
            traced_world.pdps[0].engine.store,
            traced_world.finder_for,
            workload.feeds(seed, inputs)[0],
            spare_policies(256),
            seed,
            chunks=max(3, int(100 * min(scale, 1.0))),
        )

    attributed = _attributed_cu(
        probed,
        counts,
        sync=workload.sync,
        reach_pdp=(after["pdp_decisions"] - before["pdp_decisions"]) / completed,
        messages_per_decision=plain.messages / completed,
    )
    timed = len(plain.meter.chunk_cpu) * workload.chunk
    own = {
        "harness.wall_us_per_decision": sum(plain.meter.chunk_walls) / timed * 1e6,
        "harness.cpu_us_per_decision": sum(plain.meter.chunk_cpu) / timed * 1e6,
        "harness.calib_us_p50": statistics.median(plain.meter.kernels) * 1e6,
        "harness.setup_wall_s": ready.wall_s,
        "harness.chunks": float(len(plain.meter.chunk_cpu)),
        "harness.decisions": float(completed),
        "harness.trace_overhead_ratio": traced_p50 / plain_p50,
        "harness.probe_attributed_share": attributed / plain_p50,
    }
    write_out(out_dir, f"{name}.seed{seed}.trace", phases, spans)
    return {
        "verdict": verdict,
        "metrics": {**probed, **counts, **layered, **waiting, **own},
        "chunks": len(plain.meter.chunk_cpu),
        "pinned": plain.pinned,
        "short": False,
    }


def report(name: str, trace: bool, outcome: dict, spec: dict) -> dict:
    """Print every metric with its unit; return the contract's JSON object."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    metrics = outcome["metrics"]
    verdict = outcome["verdict"]
    problems = []
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    if verdict.failed:
        problems.append(f"{verdict.failed} of {verdict.attempted} operations failed")
    if outcome["short"]:
        problems.append(
            f"the run ended after {outcome['pinned']} decisions, before the "
            "pinned prefix the simulated metrics are taken over"
        )
    print(f"# {name} ({'per-layer, traced' if trace else 'end-to-end, untraced'})")
    for metric in sorted(metrics):
        print(f"{metric:52s} {metrics[metric]:16.6f} {units.get(metric, '?')}")
    print(
        f"{'failed_share':52s} "
        f"{verdict.failed / max(verdict.attempted, 1):16.6f} fraction"
        f"   (uncompleted {verdict.not_completed}, fail-safe "
        f"{verdict.fail_safe}, oracle mismatches {verdict.oracle_mismatches}"
        f"/{verdict.oracle_checked}, stale grants {verdict.stale_grants} over "
        f"{verdict.audited_subjects} revoked subjects; {outcome['chunks']} chunks; "
        f"simulated metrics over the first {outcome['pinned']} decisions)"
    )
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            metric: {"value": value, "unit": units.get(metric, "?")}
            for metric, value in metrics.items()
        },
    }


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """One workload in a fresh interpreter; waits for it to end."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(
            f"run.py: workload run exited {process.returncode}:\n{process.stdout}"
        )
    return json.loads(lines[-1])


def check_determinism(name: str, seed: int) -> bool:
    """Two fresh processes, same seed and operation count: same counts.

    Every simulated end-to-end metric, every boundary count, every
    ``*.calls_per_decision`` and every simulated-time share must be
    bit-identical.
    """
    _import_fabric()
    from worlds import WORKLOADS

    # Three fifths of the pinned prefix: past the first replace burst of
    # ``policy_heavy`` and the first revocation of ``federated_cached``.
    decisions = WORKLOADS[name].pinned * 3 // 5
    spec = load_spec()
    # Everything per-layer that is not a wall-clock measurement: boundary
    # counts, calls per decision, simulated-time shares.
    exact_layers = [
        entry["name"]
        for entry in spec["per_layer"]
        if not entry["unit"].startswith("cu/")
        and not entry["name"].endswith(".self_share")
        and not entry["name"].startswith("harness.")
    ]
    same = True
    for trace, names in (("0", SIMULATED_E2E), ("1", exact_layers)):
        argv = [
            "--workload", name, "--seed", str(seed), "--trace", trace,
            "--decisions", str(decisions),
        ]  # fmt: skip
        first, second = (result_of(spawn(argv))["metrics"] for _ in range(2))
        for metric in names:
            if first[metric]["value"] != second[metric]["value"]:
                same = False
                print(
                    f"NOT DETERMINISTIC {name} {metric}: "
                    f"{first[metric]['value']!r} != {second[metric]['value']!r}"
                )
    print(
        f"{name}: {'deterministic' if same else 'NOT deterministic'} over "
        f"{decisions} decisions ({len(SIMULATED_E2E)} simulated metrics, "
        f"{len(exact_layers)} counts)"
    )
    return same


def run_all(args) -> bool:
    """Every workload, each in its own process, traced too if asked."""
    spec = load_spec()
    healthy = True
    for workload in spec["workloads"]:
        for trace in ("0", "1") if args.trace else ("0",):
            process = spawn(
                [
                    "--workload", workload["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace,
                    "--scale", str(args.scale),
                ]  # fmt: skip
            )
            sys.stdout.write(process.stdout)
            healthy = healthy and process.returncode == 0
    return healthy


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall seconds the measured phase runs (default: run_seconds)",
    )  # fmt: skip
    parser.add_argument(
        "--decisions", type=int, default=None,
        help="fixed operation count instead of a wall deadline; the "
        "simulated metrics and all counts are then bit-reproducible",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced per-layer run instead of the end-to-end run",
    )  # fmt: skip
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink corpus, set-up repeats and probes (smoke tests only; "
        "numbers at a scale below 1 are not comparable)",
    )  # fmt: skip
    parser.add_argument(
        "--check-determinism", metavar="NAME",
        help="run NAME twice in fresh processes; fail unless all "
        "simulated metrics and counts are bit-identical",
    )  # fmt: skip
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.check_determinism:
        return 0 if check_determinism(args.check_determinism, args.seed) else 1
    if args.workload is None:
        return 0 if run_all(args) else 1
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; one of {names}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same process id, fresh interpreter: set iteration order (and so
        # every call count) is then the same on every run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)
    _import_fabric()
    seconds = None if args.decisions is not None else args.seconds * min(args.scale, 1.0)
    runner = run_traced if args.trace else run_end_to_end
    outcome = runner(args.workload, args.seed, seconds, args.decisions, args.scale)
    result = report(args.workload, bool(args.trace), outcome, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
