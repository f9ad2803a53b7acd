"""The package's module-level imports form no cycle.

A cycle among top-level `from .x import` statements makes the import order
decide which module sees a half-initialised other. Imports inside function
bodies (catalog.build_example reads spacefile lazily) run after every module
has loaded, so they are not edges here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bispacelab"


def module_imports() -> dict[str, set[str]]:
    """Module name -> the package modules its top-level statements import."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        edges = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    edges.add(node.module.split(".")[0])
                else:  # from . import x, y
                    edges.update(alias.name for alias in node.names)
        graph[name] = edges & modules
    return graph


def find_cycle(graph: dict[str, set[str]]):
    """One cycle as a list of modules, first repeated last, or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(graph[name]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(graph):
        cycle = visit(name)
        if cycle:
            return cycle
    return None


def test_module_level_imports_are_acyclic():
    graph = module_imports()
    assert {"catalog", "spacefile"} <= graph["cli"], graph["cli"]
    assert "spacefile" not in graph["catalog"]  # its import is in a function
    assert find_cycle(graph) is None, find_cycle(graph)


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
