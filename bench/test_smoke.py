"""Smoke test of the benchmark itself, at tiny sizes (under a minute):

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import copy
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = run.benchmark_spec(run.ROOT)
REFERENCES = run.load_references()


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("name", sorted(run.TINY_WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.measure(run.TINY_WORKLOADS[name], 7, 1, False, REFERENCES)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.TINY_WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, capsys):
    result = run.measure(run.TINY_WORKLOADS[name], 7, 1, True, REFERENCES)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["cli.main.s"]["value"] > 0
    assert "no longer exists" not in capsys.readouterr().err


def test_corrupted_reference_makes_failed_share_nonzero():
    workload = run.TINY_WORKLOADS["census"]
    key = " ".join(workload.argv(0))
    corrupted = copy.deepcopy(REFERENCES)
    corrupted[key]["summary"]["class_route_sum"] += 1
    result = run.measure(workload, 0, 1, False, corrupted)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_window_without_reference_is_checked_for_consistency():
    workload = run.TINY_WORKLOADS["window"]
    no_window = {k: v for k, v in REFERENCES.items() if not k.startswith("bdh")}
    assert run.measure(workload, 5, 1, False, no_window)["failed"] == 0
    key = " ".join(workload.argv(5))
    report = {"summary": copy.deepcopy(REFERENCES[key]["summary"])}
    assert run._per_q_sums_to_S(report) is None
    report["summary"]["per_q"]["1"] *= 1.001
    assert run._per_q_sums_to_S(report) is not None


def test_references_compare_floats_by_tolerance_and_the_rest_exactly():
    expected = {"a": 1, "b": 1.0, "c": True, "d": {"e": 2.0}}
    assert run.mismatches(expected, {"a": 1, "b": 1.0 + 1e-12, "c": True, "d": {"e": 2.0}}) == []
    assert run.mismatches(expected, {"a": 2, "b": 1.0, "c": True, "d": {"e": 2.0}})
    assert run.mismatches(expected, {"a": 1, "b": 1.1, "c": True, "d": {"e": 2.0}})
    assert run.mismatches(expected, {"a": 1, "b": 1.0, "c": 1, "d": {}})


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / run.SCRATCH_NAME).exists()
