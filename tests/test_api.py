"""The package's public surface: the export list, so that a deleted name
fails here first, and the graph primitives, each of which must keep a
caller in the engine."""

import ast
from pathlib import Path

import alignrepair


def test_all_is_sorted_unique_and_resolves():
    names = alignrepair.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(alignrepair, name)]
    assert missing == []


def test_every_graph_primitive_is_called_from_another_module():
    """A primitive whose last production caller goes away is dead code."""
    package = Path(alignrepair.__file__).parent
    tree = ast.parse((package / "graphs.py").read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    called = set()
    for path in package.glob("*.py"):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(getattr(func, "id", None) or getattr(func, "attr", None))
    assert sorted(defined - called) == []
