"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench

Every workload runs untraced and traced at tiny sizes (--smoke), passes its
gates and reports every metric of BENCHMARK.json with its unit.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from tracer import Tracer  # noqa: E402
from worker import ring_gate  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0.0, name
    # The table above the result: name, value, unit and sample count.
    table = [line.split() for line in proc.stdout.splitlines()[:-1]
             if line.startswith(workload) and line.split()[-1].startswith("n=")]
    assert {row[1]: row[3] for row in table} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_ring_gate_applies_criterion_7():
    assert ring_gate([1.0] * 20, 20) == []
    assert ring_gate([1.0] * 19 + [math.nan], 20)       # a row without estimate
    assert ring_gate([1.0] * 18 + [1.6] * 2, 20)        # 90% within f(1.5)+0.1
    assert ring_gate([1.45] * 20, 20)                   # median above 1.40


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer("t")
    tracer.spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "child", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "child", "parent": 0, "start": 3.0, "end": 6.0},
    ]
    own = tracer.self_times()
    assert own["root"] == pytest.approx(5.0)   # children cover [1, 6]
    assert own["child"] == pytest.approx(6.0)
