"""The package's public surface: the export list, so that a deleted name
fails here first; the graph primitives, each of which must keep a
caller in the engine; and the public methods of the engine's classes,
each of which must keep a reader outside the tests."""

import ast
import shlex
from collections import Counter
from pathlib import Path

import alignrepair
from alignrepair.cli import cli_dispatch

REPO = Path(__file__).resolve().parent.parent


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


def readme_block(heading: str, language: str) -> str:
    """The first `language` code block under README's `heading`."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _references(tree: ast.AST) -> Counter:
    """Names used as an attribute or called by name, with their counts."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names[node.func.id] += 1
    return names


def _reader_counts() -> Counter:
    """References in the package, the benchmark and the README example."""
    package = Path(alignrepair.__file__).parent
    paths = [*package.glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    sources.append(readme_block("Library use", "python"))
    return sum((_references(ast.parse(text)) for text in sources), Counter())


def _module_tree(module: str) -> ast.Module:
    """The syntax tree of one of the package's modules."""
    path = Path(alignrepair.__file__).parent / module
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_engine_method_has_a_reader():
    """Each public method or property of a class in the engine's modules
    is referenced outside its own def: by the package, by the benchmark,
    or by the README's library example.  Names are matched without their
    class, so a name shared with another class passes."""
    used = _reader_counts()
    unread = []
    for module in ("model.py", "fragments.py", "conflicts.py", "greedy.py",
                   "pipeline.py"):
        tree = _module_tree(module)
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            public = [m for m in cls.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for method in public:
                if used[method.name] <= _references(method)[method.name]:
                    unread.append(f"{cls.name}.{method.name}")
    assert unread == []


# Exported functions that need no reader: the oracles are independent
# checks, and `fragments_incoherent` waits for a caller (ROADMAP item 3).
READER_EXEMPT_MODULES = {"oracle"}
READER_EXEMPT_FUNCTIONS = {"fragments_incoherent"}


def test_every_exported_function_has_a_reader():
    """Each module-level function in `__all__` is referenced outside its
    own def, under the same rule as the methods above.  Types and
    exceptions are classes, not functions, and are not checked."""
    used = _reader_counts()
    unread = []
    for name, module in alignrepair._MODULES.items():
        if module in READER_EXEMPT_MODULES or name in READER_EXEMPT_FUNCTIONS:
            continue
        tree = _module_tree(f"{module}.py")
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and func.name == name:
                if used[name] <= _references(func)[name]:
                    unread.append(f"{module}.{name}")
    assert unread == []


def test_readme_library_example_prints_what_its_comments_say(capsys):
    exec(compile(readme_block("Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "2\n['C1 > A2']\n"


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Each command of the shell block exits 0, and the one commented
    `# prints X` prints X."""
    monkeypatch.chdir(tmp_path)
    run = []
    for line in readme_block("Command line", "sh").replace("\\\n", " ").splitlines():
        command, _, prints = line.partition("# prints ")
        program, *argv = shlex.split(command)
        assert program == "alignrepair"
        assert cli_dispatch(argv) == 0, line
        out = capsys.readouterr().out
        if prints:
            assert out == prints + "\n", line
        run.append((argv[0], prints))
    assert run == [("gen", ""), ("check", ""), ("repair", ""), ("check", "0"),
                   ("eval", "")]
