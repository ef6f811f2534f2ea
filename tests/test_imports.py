"""The intra-package import graph of ``cptwb`` is acyclic, every exported
name exists, and every public definition is exported.

Every ``import`` statement counts, function-local ones included, so a cycle
cannot hide behind a deferred import.
"""

import ast
import importlib
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cptwb"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _targets(node: ast.AST) -> set[str]:
    """The package modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        return {n[1] if len(n) > 1 else "__init__" for n in names if n[0] == "cptwb"}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        if node.module is None or node.module.split(".")[0] != "cptwb":
            return set()
        path = node.module.split(".")[1:]
    else:
        path = node.module.split(".") if node.module else []
    if path:
        return {path[0]}
    # ``from . import name``: a submodule, or else a name defined in __init__
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set().union(*map(_targets, ast.walk(tree))) - {name}
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            found = visit(nxt)
            if found:
                return found
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        found = visit(node)
        if found:
            return found
    return None


def test_import_graph_sees_local_and_init_imports():
    graph = import_graph()
    assert {"linalg", "channels", "optimize"} <= graph["entropy"]
    assert "__init__" in graph["cli"]  # from . import __version__
    local = ast.parse("def f():\n    from . import optimize, __version__")
    assert set().union(*map(_targets, ast.walk(local))) == {"optimize", "__init__"}
    assert _cycle({"a": {"b"}, "b": {"a"}}) == ["a", "b", "a"]


def test_intra_package_imports_are_acyclic():
    graph = import_graph()
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))
    assert "entropy" not in graph["optimize"]


def test_every_exported_name_resolves():
    # a deletion that forgets its __all__ entry fails here, not at
    # ``from cptwb.<module> import *``
    for name in sorted(MODULES):
        path = "cptwb" if name == "__init__" else f"cptwb.{name}"
        mod = importlib.import_module(path)
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"{path}.__all__ names {missing}"


def test_every_public_definition_is_exported():
    # the command line front end is an entry point, not a library module
    for name in sorted(MODULES - {"cli"}):
        path = "cptwb" if name == "__init__" else f"cptwb.{name}"
        mod = importlib.import_module(path)
        defined = [
            n
            for n, obj in vars(mod).items()
            if not n.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        ]
        missing = [n for n in defined if n not in getattr(mod, "__all__", ())]
        assert not missing, f"{path}.__all__ lacks {missing}"
