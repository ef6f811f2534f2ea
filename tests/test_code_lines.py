"""Tests for ``tools/code_lines.py``, the code-line counter."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment

X = """a string that is
not a docstring"""


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return (
            1
        )
'''


def test_counts_lines_with_code_and_skips_docstrings_and_comments(tmp_path, capsys):
    # import, the two lines of X, class, def, and the three lines of return
    f = tmp_path / "m.py"
    f.write_text(SOURCE)
    assert code_lines.code_lines(f) == 8
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "n.py").write_text("y = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in lines] == [
        ["8", str(f)],
        ["1", str(tmp_path / "sub" / "n.py")],
        ["9", "total"],
    ]


def test_usage_and_missing_path_exit_nonzero(tmp_path, capsys):
    assert code_lines.main([]) == 64
    assert code_lines.main([str(tmp_path / "nope")]) == 66
    assert "no such file" in capsys.readouterr().err
