"""Self-test of the benchmark at tiny sizes (``--smoke``); timings are not checked.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc: subprocess.CompletedProcess, what: str) -> str:
    return next(line.split()[-1] for line in proc.stdout.splitlines()
                if line.startswith(f"{what} sha256"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_determinism(workload):
    first, again, other = (bench(ROOT, workload, seed, 0) for seed in (1, 1, 2))
    out = result(first)
    assert out["correct"] is True and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert result(again)["correct"] and result(other)["correct"]
    assert digest(first, "inputs") == digest(again, "inputs")
    assert digest(first, "outputs") == digest(again, "outputs")
    assert digest(first, "inputs") != digest(other, "inputs")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = result(bench(ROOT, workload, 1, 1))
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert 0.9 <= out["metrics"]["trace.accounted_frac"]["value"] <= 1.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
