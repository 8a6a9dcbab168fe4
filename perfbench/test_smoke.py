"""Smoke test of the benchmark itself: one short run per workload, traced
and untraced, with the output schema checked against BENCHMARK.json.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_matches_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(parent, [p * 0.8 for p in parent], "lower", 0.1) == ("win", 10)
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)[0] == "REGRESSION"
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "same"
    assert verdict(parent, [p * 1.2 for p in parent], "higher", 0.1)[0] == "win"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.6, 1.2, 0.9, 1.1]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, [p * 0.8 for p in parent], "lower", 0.1,
                   change_fails_more=True)[0] == "same"
    assert verdict(parent[:9], [p * 0.8 for p in parent[:9]], "lower", 0.1)[0] == "same"
