"""Smoke test of the benchmark itself: every workload at a tiny size, in both
modes, reports exactly the metrics BENCHMARK.json names, with no failed
repetition; and a copy holding only the benchmark, without the package
source, exits non-zero without a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "BENCHMARK.json") as _fh:
    BENCH = json.load(_fh)
SCRIPT = BENCH["command"][1]


def _run(cwd, *args):
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0.0
        assert result["metrics"]["solver.solve.calls"]["value"] == 1


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
