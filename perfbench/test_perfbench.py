"""The benchmark's own tests: tiny smoke runs of every workload, the traced
split's bookkeeping, and a wrong reference answer showing up as a failure.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
import workloads
from spans import COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
        capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", "0", "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"{workload}: fail_frac = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_prints_every_per_layer_metric_with_its_unit(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1", "--size", "tiny"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    args = argparse.Namespace(workload=workload, seed=4, seconds=0.0, size="tiny", spans=None)
    first, second = worker.run_traced(args), worker.run_traced(args)
    for name in COUNTS:
        assert first["layer"][name] == second["layer"][name], name
    assert first["layer"]["facet.pivots"] > 0
    inside, total = first["closure_ms"]
    assert inside == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_reference_answer_counts_as_a_failure(workload):
    deck = workloads.build(workload, 5, "tiny")
    visits = worker.run_passes(deck, deck.order, 0.0, min_solves=0)["visits"]
    want = {idx: workloads.expected(deck.instances[idx]) for idx, _ in visits}
    assert worker.count_failures(deck, visits, want)[0] == 0

    idx = visits[0][0]
    step = next(iter(want[idx]))
    wrong = dict(want[idx][step])
    if "objective" in wrong:
        wrong["objective"] += 1.0
    else:
        wrong["status"] = "Infeasible" if wrong["status"] != "Infeasible" else "Optimal"
    want[idx] = dict(want[idx], **{step: wrong})
    failed, reasons = worker.count_failures(deck, visits, want)
    assert failed == sum(1 for i, _ in visits if i == idx)
    assert reasons and reasons[0].startswith(deck.instances[idx].name)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cubes", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
