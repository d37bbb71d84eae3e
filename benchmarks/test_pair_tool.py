"""``benchmarks/pair.py``: what it refuses to compare, what it counts
as a win, what it writes.  The runs themselves are the perf lane's."""

import json

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
