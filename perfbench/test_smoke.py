"""Smoke test of the benchmark itself, at N = 2^12 so it runs in about 20 s.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in both modes on two seeds; the emitted metric names
and units must match BENCHMARK.json exactly, and a second seed must give
the same metric set.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def run_tiny(workload: str, seed: int, trace: int) -> dict:
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_benchmark_json():
    proc = run(ROOT, "--workload", "no-such-workload", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert f"choose from {sorted(WORKLOADS)}" in proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_on_two_seeds(workload, trace):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    results = [run_tiny(workload, seed, trace) for seed in (1, 2)]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"])
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(results[0]["metrics"]) == set(results[1]["metrics"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
