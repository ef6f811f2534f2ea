"""Smoke test: the benchmark runs end to end and its outputs are correct.

No timing bounds.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from run import HELD_OUT_SEED, NAMES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=600, cwd=cwd,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_is_correct(workload, seed):
    result = result_of(
        bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1")
    )
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["random_sweep", "structure_sweep", "cli_multcheck"])
def test_traced_run_reports_every_layer_metric(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "1")
    )
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["metrics"]["linalg.eigh_calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wh3_scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
