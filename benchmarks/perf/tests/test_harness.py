"""Checks of the benchmark harness itself.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run
with ``python -m pytest benchmarks/perf/tests -q``.  Everything here
drives ``run.py`` as a subprocess in ``--quick`` mode — scaled-down
suites, one repetition — so it checks shape and invariants, never speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path.insert(0, str(PERF))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_harness(*args: str, cwd: Path = ROOT, script: Path = PERF / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True)


def quick_report(path: Path, *args: str) -> dict:
    done = run_harness("--quick", "--json", str(path), *args)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    return quick_report(tmp_path_factory.mktemp("perf") / "quick.json")


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract and the catalogue
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_agrees_with_the_catalogue():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]


# ----------------------------------------------------------------------
# The full form, --quick
# ----------------------------------------------------------------------
def test_quick_run_reports_exactly_the_named_metrics(report):
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, row in report["workloads"].items():
        assert row["correct"], (name, row["problems"])
        assert row["failed_share"] == 0
        assert list(row["end_to_end"]) == [m.name for m in END_TO_END]
        assert list(row["per_layer"]) == [m.name for m in PER_LAYER]
        for metric in row["end_to_end"].values():
            assert metric["value"] > 0


def test_layers_separate_as_predicted(report):
    layers = {name: {k: v["value"] for k, v in row["per_layer"].items()}
              for name, row in report["workloads"].items()}
    assert layers["serve_longctx_warm"]["accel.pipeline_run_calls"] == 0
    assert layers["serve_longctx_warm"]["accel.setup_pipeline_run_s"] > 0
    assert layers["serve_longctx_warm"]["kvpool.prefix_hit_rate"] == 0
    assert layers["paper_fig2_variants"]["accel.execute_slots_calls"] == 0
    assert layers["paper_fig2_variants"]["paper.speedup_x"] > 1
    for name in ("serve_mixed_cold", "serve_longctx_warm", "cluster4_affinity"):
        assert (layers[name]["backend.execute_step_calls"]
                == layers[name]["serve.steps"] > 0)
    assert layers["cluster4_affinity"]["cluster.route_calls"] > 0
    assert layers["cluster4_affinity"]["obs.spans"] > 0


def test_spans_nest_and_cover_the_timed_region(report):
    for name, row in report["workloads"].items():
        assert row["per_layer"]["trace.coverage_share"]["value"] >= 0.90, name
        events = json.loads(
            (PERF / "out" / f"{name}.trace.json").read_text())["traceEvents"]
        below = [0.0] * len(events)
        for event in events:
            parent = event["args"]["parent"]
            if parent >= 0:
                below[parent] += event["dur"]
                assert events[parent]["ts"] <= event["ts"]
        for event, children in zip(events, below):
            # self time = duration minus the spans directly below it
            assert event["dur"] - children >= -1.0, (name, event["name"])


def test_seed_moves_the_tokens_and_only_the_seed(report, tmp_path):
    only = ("--workloads", "cluster4_affinity")
    again = quick_report(tmp_path / "again.json", "--seed", "0", *only)
    other = quick_report(tmp_path / "other.json", "--seed", "1", *only)
    first = report["workloads"]["cluster4_affinity"]
    for digest in ("token_digest", "sim_digest"):
        assert again["workloads"]["cluster4_affinity"][digest] == first[digest]
        assert other["workloads"]["cluster4_affinity"][digest] != first[digest]


# ----------------------------------------------------------------------
# The BENCHMARK.json form
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace, metrics", [
    ("0", [m.name for m in END_TO_END]),
    ("1", [m.name for m in PER_LAYER]),
])
def test_single_workload_form_prints_the_result_line(trace, metrics):
    done = run_harness("--quick", "--workload", "cluster4_affinity",
                       "--seed", "3", "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == metrics
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_fails_without_printing_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    done = run_harness("--workload", "serve_mixed_cold", "--seed", "0",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path,
                       script=tmp_path / "benchmarks" / "perf" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
