"""A/A tool: do two sets of runs of the *same* checkout agree?

    python3 benchmarks/perf/aa.py --sets 2 --runs 3
    python3 benchmarks/perf/aa.py --sets 2 --runs 10 --workload secure_sync

Every run uses the same seed (11), so whatever differs between them is
machine noise and nothing else.  Runs are interleaved (A B A B ...) so
slow machine drift hits both sets alike.  For every end-to-end metric of
every workload it prints

* ``spread``: the distance between the first and third quartile of a
  set's values as a share of their median, worst set shown;
* ``shift``: how much *worse* the last set's median is than the first
  set's, as a share of the first (what a regression gate would see
  although nothing changed);

each against the metric's bound from ``BENCHMARK.json``.  The four
simulated metrics must read bit-identical on every run: any difference
is reported as ``NOT EXACT`` whatever their bound says.  The exit status
is non-zero when a shift or a spread is outside its bound or a simulated
metric is not exact.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import DEFAULT_SEED, SIMULATED_E2E, load_spec, result_of, spawn


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, by ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worsening(first: float, last: float, better: str) -> float:
    """How much worse ``last`` is than ``first``, as a share of ``first``."""
    change = (last - first) / first
    return change if better == "lower" else -change


def collect(workloads, sets: int, runs: int, seconds: float):
    """values[workload][set][metric] -> list over runs, interleaved."""
    values = {name: [{} for _ in range(sets)] for name in workloads}
    for name in workloads:
        for run in range(runs):
            for index in range(sets):
                result = result_of(
                    spawn(
                        [
                            "--workload", name, "--seed", str(DEFAULT_SEED),
                            "--seconds", str(seconds), "--trace", "0",
                        ]  # fmt: skip
                    )
                )
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"aa.py: a run of {name} failed")
                for metric, entry in result["metrics"].items():
                    values[name][index].setdefault(metric, []).append(entry["value"])
                print(
                    f"  ran {name} set {'ABCDEFGH'[index]} run {run + 1}/{runs}",
                    file=sys.stderr,
                )
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2, choices=range(2, 9))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workload", action="append", help="only this one")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    values = collect(workloads, args.sets, args.runs, spec["run_seconds"])

    within = True
    print(
        f"{'workload':17s} {'metric':27s} {'median A':>12s} {'median B':>12s} "
        f"{'shift':>8s} {'spread':>8s} {'bound':>6s}"
    )
    for name in workloads:
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            per_set = [one_set[metric] for one_set in values[name]]
            medians = [statistics.median(series) for series in per_set]
            shift = worsening(medians[0], medians[-1], entry["better"])
            spread = max(quartile_spread(series) for series in per_set)
            # setup_s is gated on its median only: its spread is reported.
            verdict = ""
            if shift > bound or (metric != "setup_s" and spread > bound):
                verdict = "  OUT OF BOUND"
            if metric in SIMULATED_E2E and len({v for s in per_set for v in s}) > 1:
                verdict = "  NOT EXACT"
            within = within and not verdict
            print(
                f"{name:17s} {metric:27s} {medians[0]:12.5g} {medians[-1]:12.5g} "
                f"{shift:+8.2%} {spread:8.2%} {bound:6.1%}{verdict}"
            )
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
