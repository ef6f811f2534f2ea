"""Count the code lines of Python files.

Usage: ``python tools/code_lines.py PATH...``

A code line holds a token other than a comment and is not part of a
module, class or function docstring; blank lines, comment-only lines and
docstrings do not count.  Each PATH is a ``.py`` file or a directory
searched recursively.  Prints one line per file, sorted by path, then the
total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that are not code: comments, line ends and the zero-width markers
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def _files(paths: list[str]) -> list[Path]:
    found = set()
    for arg in paths:
        p = Path(arg)
        if p.is_dir():
            found.update(p.rglob("*.py"))
        elif p.is_file():
            found.add(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {arg}")
    return sorted(found)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 64
    try:
        files = _files(argv)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 66
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
