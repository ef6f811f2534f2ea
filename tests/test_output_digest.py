"""Tests for ``tools/output_digest.py``, the per-area output digest."""

import importlib.util
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


@dataclass(frozen=True)
class _Report:
    value: float
    states: tuple
    config: dict


def _tiny_report():
    return _Report(
        value=0.25,
        states=(np.array([1.0 + 2.0j, -0.5j]), np.eye(2)),
        config={"seed": 7, "restarts": 3, "name": "tiny", "flag": None},
    )


def test_the_digest_repeats():
    assert output_digest.digest(_tiny_report()) == output_digest.digest(_tiny_report())


def test_one_flipped_bit_changes_the_digest():
    report = _tiny_report()
    before = output_digest.digest(report)
    report.states[1].view(np.uint64)[1, 1] ^= 1  # the last bit of one entry
    assert output_digest.digest(report) != before


def test_a_missing_src_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "--src", str(tmp_path / "nowhere")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "no cptwb package" in proc.stderr
