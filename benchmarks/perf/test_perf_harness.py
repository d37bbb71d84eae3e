"""Smoke + schema test of the host-cost benchmark (tier-1, a few seconds).

Every workload runs once end-to-end and once traced at ``scale=0.01``
(tiny corpus, one set-up, three-chunk probes) *in this process* — fine
for checking names, units and correctness, never for numbers — and must
emit exactly the metric names ``BENCHMARK.json`` lists.  An AST pass
pins the harness to the public import surface the README documents.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import calibration
import run
from worlds import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SCALE = 0.01
FORBIDDEN_NAMES = {
    "run_closed_loop",
    "run_closed_loop_multi",
    "run_closed_loop_federated",
}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][:2] == ["python3", "benchmarks/perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_calibration_kernel_is_frozen():
    assert calibration.kernel_pass() == calibration.KERNEL_CHECKSUM
    assert calibration.timed_kernel_pass() > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_exactly_the_listed_metrics(name, tmp_path):
    decisions = WORKLOADS[name].chunk
    for trace, runner, listed in (
        (False, run.run_end_to_end, SPEC["end_to_end"]),
        (True, run.run_traced, SPEC["per_layer"]),
    ):
        outcome = runner(
            name, run.DEFAULT_SEED, None, decisions, SMOKE_SCALE, out_dir=tmp_path
        )
        result = run.report(name, trace, outcome, SPEC)
        assert result["correct"]
        assert result["failed"] == 0 and result["attempted"] == decisions
        assert set(result["metrics"]) == {entry["name"] for entry in listed}
        units = {entry["name"]: entry["unit"] for entry in listed}
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], float)
        if trace:
            shares = [
                entry["value"]
                for metric, entry in result["metrics"].items()
                if metric.endswith(".self_share")
            ]
            assert abs(sum(shares) - 1.0) < 1e-6
            assert list(tmp_path.glob(f"{name}.*.spans.jsonl"))
        else:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
            # One chunk ends long before the pinned prefix: the simulated
            # clock must then be read at the last completion, not after
            # the driver moved it on to its horizon (decisions / 3600).
            rate = result["metrics"]["virtual_decisions_per_s"]["value"]
            assert 100 < rate < 50_000
            assert outcome["pinned"] == decisions


def _package_exports(package: str) -> set[str]:
    module = __import__(package, fromlist=["__all__"])
    return set(module.__all__)


@pytest.mark.parametrize(
    "path", sorted(HERE.glob("*.py")), ids=lambda path: path.name
)
def test_harness_stays_on_the_public_surface(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), (
                    f"{path.name}: 'import {alias.name}' - import names from "
                    "a repro.<package> __init__ instead"
                )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro"
        ):
            assert re.fullmatch(r"repro\.[a-z]+", node.module), (
                f"{path.name}: 'from {node.module}' reaches below a package "
                "__init__"
            )
            exported = _package_exports(node.module)
            for alias in node.names:
                assert alias.name in exported, (
                    f"{path.name}: {node.module}.{alias.name} is not exported"
                )
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id == "self"
            assert not private or own, (
                f"{path.name}:{node.lineno}: touches private attribute "
                f"{node.attr!r}"
            )
            assert node.attr not in FORBIDDEN_NAMES, f"{path.name}: {node.attr}"
        elif isinstance(node, ast.Name):
            assert node.id not in FORBIDDEN_NAMES, f"{path.name}: {node.id}"
        elif isinstance(node, ast.alias):
            assert node.name not in FORBIDDEN_NAMES, f"{path.name}: {node.name}"
