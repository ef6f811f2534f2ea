"""Tests for ``tools/mutants.py``, the mutation check of the Tier-1 suite."""

import importlib.util
import io
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

Mutant = mutants.Mutant

MOD = """LIMIT = 3


def double(x):
    return 2 * x
"""

TEST = """from tiny.mod import double


def test_double():
    assert double(2) == 4
"""


def _tree(root):
    (root / "src" / "tiny").mkdir(parents=True)
    (root / "src" / "tiny" / "__init__.py").write_text("")
    (root / "src" / "tiny" / "mod.py").write_text(MOD)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(TEST)


def test_a_tested_mutant_is_killed_and_an_untested_one_survives(tmp_path):
    _tree(tmp_path)
    out = io.StringIO()
    code = mutants.run(tmp_path, [
        Mutant("src/tiny/mod.py", "return 2 * x", "return 3 * x", "doubles wrongly"),
        Mutant("src/tiny/mod.py", "LIMIT = 3", "LIMIT = 4", "no test reads LIMIT"),
    ], out)
    lines = out.getvalue().splitlines()
    assert code == 1
    assert lines == [
        "src/tiny/mod.py: doubles wrongly: killed by tests/test_mod.py::test_double",
        "src/tiny/mod.py: no test reads LIMIT: survived",
        "1 of 2 mutants killed",
    ]
    assert (tmp_path / "src" / "tiny" / "mod.py").read_text() == MOD  # edits go to copies


def test_an_edit_whose_old_text_is_not_there_once_is_refused(tmp_path):
    _tree(tmp_path)
    for old in ("return 5 * x", "x"):  # missing, and more than once
        out = io.StringIO()
        assert mutants.run(tmp_path, [Mutant("src/tiny/mod.py", old, "y", "")], out) == 2
        assert "need 1" in out.getvalue() and "killed" not in out.getvalue()


def test_a_failing_unmutated_suite_is_refused(tmp_path):
    _tree(tmp_path)
    (tmp_path / "tests" / "test_mod.py").write_text(TEST.replace("== 4", "== 5"))
    out = io.StringIO()
    code = mutants.run(tmp_path, [Mutant("src/tiny/mod.py", "LIMIT = 3", "LIMIT = 4", "")], out)
    assert code == 2
    assert out.getvalue() == "the unmutated suite fails: tests/test_mod.py::test_double\n"
