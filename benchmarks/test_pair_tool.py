"""``benchmarks/pair.py``: what it refuses to compare, what it counts
as a win, what it writes.  The runs themselves are the perf lane's."""

import json
import math

import pytest

import pair

END_TO_END = [
    {"name": "decision_cost_cu_p50", "better": "lower"},
    {"name": "virtual_decisions_per_s", "better": "higher"},
    {"name": "peak_rss_mib", "better": "lower"},
]


def result(p50, rss=80.0, failed=0, correct=True, simulated=3600.5):
    metrics = {name: {"value": simulated} for name in pair.SIMULATED}
    metrics["decision_cost_cu_p50"] = {"value": p50}
    metrics["peak_rss_mib"] = {"value": rss}
    return {"correct": correct, "failed": failed, "metrics": metrics}


def pairs_of(*rows):
    return {
        seed: {"parent": parent, "change": change}
        for seed, (parent, change) in enumerate(rows, start=101)
    }


def test_seed_lists():
    assert pair.parse_seeds("101-104") == [101, 102, 103, 104]
    assert pair.parse_seeds("11,73-74,81") == [11, 73, 74, 81]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    pairs = pairs_of(
        (result(26.0, rss=82.0), result(21.0, rss=66.0)),
        (result(26.4, rss=82.0), result(21.4, rss=82.0)),
        (result(26.2, rss=82.0), result(26.3, rss=83.0)),
    )
    summary = pair.summarise(pairs, END_TO_END)
    # Simulated metrics are compared for equality, never summarised.
    assert sorted(summary) == ["decision_cost_cu_p50", "peak_rss_mib"]
    p50 = summary["decision_cost_cu_p50"]
    assert (p50["wins"], p50["ties"]) == (2, 0)
    assert p50["parent"]["median"] == 26.2 and p50["change"]["median"] == 21.4
    rss = summary["peak_rss_mib"]
    assert (rss["wins"], rss["ties"]) == (1, 1)


def test_clean_pairs_have_no_problems():
    assert pair.problems_of(pairs_of((result(26.0), result(21.0)))) == []


def test_a_failed_or_incorrect_run_is_a_problem():
    problems = pair.problems_of(
        pairs_of(
            (result(26.0), result(21.0, failed=3)),
            (result(26.0, correct=False), result(21.0)),
        )
    )
    assert len(problems) == 2
    assert "seed 101 change: failed=3" in problems[0]
    assert "seed 102 parent" in problems[1]


def test_a_simulated_metric_that_moves_in_the_last_digit_is_a_problem():
    problems = pair.problems_of(
        pairs_of((result(26.0), result(21.0, simulated=3600.5000000000005)))
    )
    assert len(problems) == len(pair.SIMULATED)
    assert "virtual_decisions_per_s" in problems[0]


def test_record_appends_one_line_per_row(tmp_path):
    path = tmp_path / "BENCH_host.json"
    path.write_text('{"about": "what this is", "rows": [{"label": "old"}]}')
    pair.record({"label": "new", "metrics": {"m": {"wins": 1}}}, path)
    text = path.read_text()
    assert json.loads(text) == {
        "about": "what this is",
        "rows": [{"label": "old"}, {"label": "new", "metrics": {"m": {"wins": 1}}}],
    }
    assert sum(line.startswith("  {") for line in text.splitlines()) == 2


def test_the_committed_trajectory_is_well_formed():
    trajectory = json.loads(pair.TRAJECTORY.read_text())
    assert trajectory["rows"]
    for row in trajectory["rows"]:
        assert {"label", "parent", "change", "workload", "seeds", "metrics"} <= set(row)
        assert row["failed"] == 0 and row["simulated_equal"] is True


def row(label, parent, p50, p90=None, workload="secure_sync"):
    metrics = {"decision_cost_cu_p50": {"parent": {"median": 40.0}, "change": {"median": p50}}}
    if p90 is not None:
        metrics["decision_cost_cu_p90"] = {"parent": {"median": 50.0}, "change": {"median": p90}}
    return {"label": label, "parent": parent, "workload": workload, "metrics": metrics}


#: Commits, oldest first: PR 3 lands on a1, PR 4 on b2, a re-anchor, PR 6
#: (PR 5 never landed), PR 7 with no row, then the tip a working tree
#: change is measured against.
HISTORY = [
    ("a1" + "0" * 38, "PR 2: two"),
    ("b2" + "0" * 38, "PR 3: three"),
    ("c3" + "0" * 38, "PR 4: four"),
    ("d4" + "0" * 38, "re-anchor @ PR 4: ROADMAP"),
    ("e5" + "0" * 38, "PR 6: six"),
    ("f6" + "0" * 38, "PR 7: seven"),
]
TRAJECTORY_ROWS = [
    row("PR 2", "a0", 99.0),
    row("PR 3 draft", "a1", 20.0, 25.0),
    row("PR 3", "a1", 36.0, 45.0),
    row("PR 3", "a1", 32.0, 40.0, workload="gateway_plain"),
    row("PR 4", "b2", 44.0),
    row("PR 6", "d4", 40.0, 55.0),
    row("PR 8", "f6", 30.0, 50.0),
]


def test_the_cumulative_ratio_multiplies_the_last_row_per_parent_since_the_label():
    report = pair.cumulative(TRAJECTORY_ROWS, "PR 3", "secure_sync", HISTORY)
    # The draft is superseded by the later row on the same parent; PR 2's
    # row is before the label; another workload's rows are not read.
    assert [r["label"] for r in report["rows"]] == ["PR 3", "PR 4", "PR 6", "PR 8"]
    p50 = report["products"]["decision_cost_cu_p50"]
    assert p50["rows"] == 4
    assert math.isclose(p50["product"], (36 / 40) * (44 / 40) * (40 / 40) * (30 / 40))
    # A row without p90 (as the early ones were recorded) is left out.
    p90 = report["products"]["decision_cost_cu_p90"]
    assert p90["rows"] == 3
    assert math.isclose(p90["product"], (45 / 50) * (55 / 50) * (50 / 50))


def test_a_draft_label_reaches_the_row_that_replaced_it():
    labels = [r["label"] for r in pair.rows_since(TRAJECTORY_ROWS, "PR 3 draft", "secure_sync")]
    assert labels == ["PR 3", "PR 4", "PR 6", "PR 8"]


def test_the_prs_that_landed_without_a_row_are_the_gaps():
    report = pair.cumulative(TRAJECTORY_ROWS, "PR 3", "secure_sync", HISTORY)
    assert report["gaps"] == ["PR 7"]
    assert pair.measured_pr("d4", HISTORY) == "PR 6"
    assert pair.measured_pr("f6", HISTORY) is None  # a working tree on the tip
    gateway = pair.cumulative(TRAJECTORY_ROWS, "PR 3", "gateway_plain", HISTORY)
    assert gateway["gaps"] == ["PR 4", "PR 6", "PR 7"]


def test_an_unknown_label_is_refused():
    with pytest.raises(SystemExit, match="no row is labelled"):
        pair.rows_since(TRAJECTORY_ROWS, "PR 99", "secure_sync")
