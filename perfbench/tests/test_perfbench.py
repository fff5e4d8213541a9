"""The benchmark's own tests: definitions, smoke runs, negative controls.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Smoke runs use tiny sizes: they check the plumbing and the output
contract, not performance.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_definitions():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(row) for row in layers.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(row) for row in layers.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_exactly_the_declared_metrics(workload, trace):
    spec = _benchmark_json()
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    result = _result(
        _run("--workload", workload, "--seed", "5", "--trace", trace, "--smoke")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for entry in declared:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_corrupted_reference_is_reported_as_a_failure(workload):
    result = _result(
        _run("--workload", workload, "--seed", "5", "--smoke", "--corrupt-reference")
    )
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_same_seed_same_outcomes():
    first, second = (
        _result(_run("--workload", "fleet-hetero", "--seed", "7", "--smoke"))
        for _ in range(2)
    )
    for name in ("sim_throughput", "sim_envy"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _run("--workload", "serve-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
