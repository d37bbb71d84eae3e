"""Paired host-cost runs of two revisions, by one command.

    python benchmarks/pair.py --parent REV --workload W --seeds 101-110
    python benchmarks/pair.py --since "PR 33"

Exports ``--parent`` and ``--change`` (default: the working tree as it
stands, untracked files included) into two fresh directories, then for
every seed runs each side's *own* ``benchmarks/perf/run.py`` — the
``BENCHMARK.json`` command, ``--trace 0``, at ``run_seconds`` — one run
at a time, alternating which side goes first.  Prints, per end-to-end
metric, each side's quartiles, the change of the median and how many
pairs the change won (ties count for neither), and appends one row per
workload to the committed trajectory ``BENCH_host.json``.

Exit status is non-zero, and nothing is recorded, when any run had
``failed != 0`` or did not report ``correct``, or when a simulated
metric differs in any digit between the two sides of one seed: a change
that moves the simulated world is not a host-cost change, and its cost
numbers compare two different workloads.

``--since LABEL`` runs nothing: it reads the trajectory and prints, per
workload, the cumulative p50 and p90 since the first row labelled LABEL
— the product of each row's change/parent median ratio.  A row
measures the PR whose parent commit it names; when several rows name
one parent (a draft, then the row that replaced it), the last one
counts.  The report names the rows it multiplied and, from ``git log``,
the PRs that landed since with no row (gaps): the product spans them
without their cost.  Paired ratios carry across machines; the product
is a trend, not a claim.  It is also a gate: the exit status is
non-zero, and the report names the workload, when any workload's
cumulative p50 is above :data:`DRIFT_LIMIT`.

The revisions are exported with ``git archive`` rather than checked out
as ``git worktree``s: the repository is left exactly as it was, and a
run sees the committed files in a new directory, which is how the
benchmark driver runs them.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_host.json"
#: Compared digit for digit within a seed, never summarised.
SIMULATED = (
    "virtual_decisions_per_s",
    "virtual_latency_mean_ms",
    "wire_messages_per_decision",
    "wire_bytes_per_decision",
)
SIDES = ("parent", "change")
#: ``--since`` fails when a workload's cumulative p50 product is above
#: this: a drift of more than +5% since the anchor must be paid back or
#: explained, not accumulated a few per cent per change.
DRIFT_LIMIT = 1.05


def parse_seeds(text: str) -> list[int]:
    """``"101-110"`` or ``"11,73,81-86"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(*argv: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *argv],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout  # fmt: skip


def export(revision: Optional[str], destination: Path) -> str:
    """Write ``revision``'s files (None: the working tree's) under
    ``destination``; returns the name the trajectory records."""
    destination.mkdir(parents=True)
    if revision is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():
                target = destination / name
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
        return git("rev-parse", "--short", "HEAD").strip() + "+worktree"
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", revision], stdout=subprocess.PIPE
    )
    subprocess.run(
        ["tar", "-x", "-C", str(destination)], stdin=archive.stdout, check=True
    )
    if archive.wait() != 0:
        raise SystemExit(f"pair.py: cannot export revision {revision!r}")
    return git("rev-parse", "--short", revision).strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of ``checkout``'s own benchmark."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    process = subprocess.run(
        [
            *spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )  # fmt: skip
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"pair.py: {workload} seed {seed} printed nothing")
    return json.loads(lines[-1])


def problems_of(pairs: dict[int, dict[str, dict]]) -> list[str]:
    """Why these pairs must not be compared (empty: they may be)."""
    problems = []
    for seed, pair in pairs.items():
        for side in SIDES:
            result = pair[side]
            if result["failed"] != 0 or not result["correct"]:
                problems.append(
                    f"seed {seed} {side}: failed={result['failed']} "
                    f"correct={result['correct']}"
                )
        for metric in SIMULATED:
            parent, change = (
                pair[side]["metrics"][metric]["value"] for side in SIDES
            )
            if parent != change:
                problems.append(
                    f"seed {seed} {metric}: parent {parent!r} != change {change!r}"
                )
    return problems


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:  # one seed (a smoke run): every quartile is it
        values = values * 2
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarise(pairs: dict[int, dict[str, dict]], end_to_end: list[dict]) -> dict:
    """Per host-side end-to-end metric: both sides' quartiles and the
    pairs the change won, in the metric's own better direction."""
    summary = {}
    for entry in end_to_end:
        metric = entry["name"]
        if metric in SIMULATED:
            continue
        sign = -1.0 if entry["better"] == "lower" else 1.0
        values = {
            side: [pair[side]["metrics"][metric]["value"] for pair in pairs.values()]
            for side in SIDES
        }
        deltas = [
            sign * (change - parent)
            for parent, change in zip(values["parent"], values["change"], strict=True)
        ]
        summary[metric] = {
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "wins": sum(delta > 0 for delta in deltas),
            "ties": sum(delta == 0 for delta in deltas),
        }
    return summary


def print_summary(workload: str, pairs: dict, summary: dict) -> None:
    count = len(pairs)
    print(f"# {workload}: {count} pairs, seeds {sorted(pairs)}")
    for metric, row in summary.items():
        parent, change = row["parent"], row["change"]
        moved = (
            (change["median"] - parent["median"]) / parent["median"] * 100.0
            if parent["median"]
            else 0.0
        )
        print(
            f"{metric:24s} parent {parent['q1']:9.3f} /{parent['median']:9.3f} /"
            f"{parent['q3']:9.3f}   change {change['q1']:9.3f} /"
            f"{change['median']:9.3f} /{change['q3']:9.3f}   "
            f"{moved:+6.1f}%   wins {row['wins']}/{count}"
            + (f" (ties {row['ties']})" if row["ties"] else "")
        )


def record(row: dict, path: Path = TRAJECTORY) -> None:
    """Append ``row``; the file keeps one row per line, so a comparison
    is a one-line diff."""
    trajectory = json.loads(path.read_text(encoding="utf-8"))
    rows = ",\n".join(
        "  " + json.dumps(entry) for entry in [*trajectory["rows"], row]
    )
    path.write_text(
        f'{{\n "about": {json.dumps(trajectory["about"])},\n'
        f' "rows": [\n{rows}\n ]\n}}\n',
        encoding="utf-8",
    )


#: A commit that landed a PR, by its subject.
PR_SUBJECT = re.compile(r"PR (\d+):")


def rows_since(rows: list[dict], label: str, workload: str) -> list[dict]:
    """``workload``'s rows from the first row labelled ``label`` on, in
    trajectory order, the last per parent commit."""
    starts = [index for index, row in enumerate(rows) if row["label"] == label]
    if not starts:
        raise SystemExit(f"pair.py: no row is labelled {label!r}")
    latest: dict[str, tuple[int, dict]] = {}
    for index, row in enumerate(rows):
        if row["workload"] == workload:
            latest[row["parent"]] = (index, row)
    return [row for index, row in sorted(latest.values(), key=lambda kept: kept[0]) if index >= starts[0]]


def ratio(row: dict, metric: str) -> Optional[float]:
    """The row's change/parent median ratio of ``metric``, if it has one."""
    medians = row["metrics"].get(metric)
    if medians is None:
        return None
    return medians["change"]["median"] / medians["parent"]["median"]


def landed_after(parent: str, history: list[tuple[str, str]]) -> list[str]:
    """The PRs that landed after commit ``parent`` in ``history`` (hash,
    subject; oldest first), in order; none when ``parent`` is not in it."""
    hashes = [commit for commit, _ in history]
    at = next((i for i, commit in enumerate(hashes) if commit.startswith(parent)), len(history))
    return [f"PR {m.group(1)}" for _, subject in history[at + 1 :] if (m := PR_SUBJECT.match(subject))]


def measured_pr(parent: str, history: list[tuple[str, str]]) -> Optional[str]:
    """The PR a row on ``parent`` measured: the first to land after it.
    None when none has landed yet (the row measured a working tree)."""
    return next(iter(landed_after(parent, history)), None)


def cumulative(
    rows: list[dict], label: str, workload: str, history: list[tuple[str, str]]
) -> dict:
    """The rows since ``label``, per metric (p50, p90) the product of
    their ratios and how many rows had one, and the gaps: the PRs that
    landed after the first row's parent that no row measured."""
    used = rows_since(rows, label, workload)
    measured = {measured_pr(row["parent"], history) for row in used}
    products = {}
    for metric in ("decision_cost_cu_p50", "decision_cost_cu_p90"):
        ratios = [r for r in (ratio(row, metric) for row in used) if r is not None]
        products[metric] = {"product": math.prod(ratios), "rows": len(ratios)}
    landed = landed_after(used[0]["parent"], history) if used else []
    return {
        "rows": used,
        "gaps": [pr for pr in landed if pr not in measured],
        "products": products,
    }


def print_cumulative(label: str, workloads: list[str], history: list[tuple[str, str]]) -> int:
    """Print each workload's cumulative report; returns the exit status:
    1 when some workload's p50 product is above :data:`DRIFT_LIMIT`."""
    rows = json.loads(TRAJECTORY.read_text(encoding="utf-8"))["rows"]
    print(f"# cumulative since {label!r}: product of change/parent median ratios")
    drifted = []
    for workload in workloads:
        report = cumulative(rows, label, workload, history)
        p50 = report["products"]["decision_cost_cu_p50"]["product"]
        if p50 > DRIFT_LIMIT:
            drifted.append(f"{workload} p50 x{p50:.4f}")
        figures = "   ".join(
            f"{metric[-3:]} x{entry['product']:.4f} ({(entry['product'] - 1) * 100:+.1f}%, "
            f"{entry['rows']} rows)"
            for metric, entry in report["products"].items()
        )
        print(f"{workload:18s} {figures}")
        for row in report["rows"]:
            print(
                f"    {row['label']!r} parent {row['parent']} seeds {row['seeds']} "
                f"({row.get('pairs', '?')} pairs): p50 x{ratio(row, 'decision_cost_cu_p50'):.4f}"
            )
        if report["gaps"]:
            print(f"    gaps (landed, no row): {', '.join(report['gaps'])}")
    for figure in drifted:
        print(
            f"FAILED CHECK: drift since {label!r}: {figure} is above x{DRIFT_LIMIT}",
            file=sys.stderr,
        )
    return 1 if drifted else 0


def git_history() -> list[tuple[str, str]]:
    """The commits of ``HEAD``'s history, oldest first: hash and subject."""
    lines = git("log", "--reverse", "--format=%H %s").splitlines()
    return [(commit, subject) for commit, subject in (line.split(" ", 1) for line in lines)]


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="revision to compare against")
    parser.add_argument(
        "--change", default=None,
        help="revision under test (default: the working tree, uncommitted "
        "and untracked files included)",
    )  # fmt: skip
    parser.add_argument(
        "--workload", action="append",
        help="BENCHMARK.json workload; repeat for several (with --since: "
        "the workloads reported, default all)",
    )  # fmt: skip
    parser.add_argument("--seeds", help='e.g. "101-110" or "11,73"')
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per run (default: BENCHMARK.json run_seconds; "
        "rows at another length are recorded with it, and are not claims)",
    )  # fmt: skip
    parser.add_argument("--label", default="", help="what the row is, e.g. 'PR 17'")
    parser.add_argument(
        "--no-record", action="store_true",
        help="print only; leave BENCH_host.json alone",
    )  # fmt: skip
    parser.add_argument(
        "--since", metavar="LABEL",
        help="run nothing: print each workload's cumulative p50 and p90 "
        "since the first row labelled LABEL; fail when a p50 is above "
        "DRIFT_LIMIT",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.since is None and not (args.parent and args.workload and args.seeds):
        parser.error("--parent, --workload and --seeds are required to pair runs")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.since is not None:
        workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
        return print_cumulative(args.since, workloads, git_history())
    seeds = parse_seeds(args.seeds)
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    healthy = True
    with tempfile.TemporaryDirectory(prefix="pair-") as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        names = {
            "parent": export(args.parent, checkouts["parent"]),
            "change": export(args.change, checkouts["change"]),
        }
        for workload in args.workload:
            pairs: dict[int, dict[str, dict]] = {}
            for position, seed in enumerate(seeds):
                order = SIDES if position % 2 == 0 else SIDES[::-1]
                pairs[seed] = {
                    side: run_once(checkouts[side], workload, seed, seconds)
                    for side in order
                }
                print(
                    f"{workload} seed {seed} ({' then '.join(order)}): "
                    + " → ".join(
                        "{:.2f}".format(
                            pairs[seed][side]["metrics"]["decision_cost_cu_p50"]["value"]
                        )
                        for side in SIDES
                    ),
                    flush=True,
                )
            summary = summarise(pairs, spec["end_to_end"])
            print_summary(workload, pairs, summary)
            problems = problems_of(pairs)
            for problem in problems:
                print(f"FAILED CHECK: {workload} {problem}", file=sys.stderr)
            if problems:
                healthy = False
            elif not args.no_record:
                record(
                    {
                        "label": args.label,
                        **names,
                        "workload": workload,
                        "seeds": args.seeds,
                        "pairs": len(pairs),
                        "run_seconds": seconds,
                        "failed": 0,
                        "simulated_equal": True,
                        "metrics": summary,
                    }
                )
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
