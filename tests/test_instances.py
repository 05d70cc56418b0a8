"""The instance table (`tests/instances.py`): its `gen` arguments give
back each row's parameters, its workload rows are the benchmark's, and
no other test file writes a row's parameters out again."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
from pathlib import Path

import pytest

from alignrepair import GeneratorParams
from alignrepair.cli import _build_parser

from instances import GEN_FLAGS, INSTANCES, WORKLOADS, gen_args

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _parsed_fields(argv: list[str]) -> tuple:
    """The GeneratorParams fields that `alignrepair gen` reads from `argv`."""
    args = _build_parser().parse_args(["gen", *argv, "--out-dir", "unused"])
    return tuple(getattr(args, flag[2:].replace("-", "_")) for flag in GEN_FLAGS)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_gen_args_give_back_the_row(name):
    """Parsed, the row's `gen` arguments give its parameters exactly: the
    same values of the same types, as the repr shows, so `params.json`
    is what the row says."""
    row = INSTANCES[name]
    parsed = GeneratorParams(*_parsed_fields(gen_args(row)))
    assert repr(parsed) == repr(GeneratorParams(*row.fields))


def test_workload_rows_are_the_benchmark_workloads(monkeypatch):
    """perfbench/workloads.py keeps its own copy of the three workloads;
    it must match the table's rows, parameters and `repair` flags."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert {name: dataclasses.astuple(w) for name, w in workloads.WORKLOADS.items()} == {
        name: (name, *row.fields, row.flags) for name, row in WORKLOADS.items()
    }


def _call_fields(node: ast.Call):
    """The fields of a `GeneratorParams(...)` call, or None unless every
    argument is a constant."""
    try:
        bound = inspect.signature(GeneratorParams).bind(
            *map(ast.literal_eval, node.args),
            **{k.arg: ast.literal_eval(k.value) for k in node.keywords})
    except (ValueError, TypeError):
        return None
    bound.apply_defaults()
    return tuple(bound.arguments.values())


def _list_fields(node: ast.List):
    """The fields `gen` reads from an argument list, or None if it does
    not parse: a value that is not a constant, or a bad one."""
    argv = [e.value if isinstance(e, ast.Constant) and isinstance(e.value, str) else "?"
            for e in node.elts]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return _parsed_fields(argv[argv.index("--classes"):])
    except SystemExit:
        return None


def _spelled_fields(tree):
    """Yield (line, fields) for each `GeneratorParams(...)` call with
    constant arguments, and for each list that holds `"--classes"`."""
    for node in ast.walk(tree):
        fields = None
        if isinstance(node, ast.Call) and "GeneratorParams" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            fields = _call_fields(node)
        elif isinstance(node, ast.List) and any(
                isinstance(e, ast.Constant) and e.value == "--classes" for e in node.elts):
            fields = _list_fields(node)
        if fields is not None:
            yield node.lineno, fields


def test_only_the_table_spells_out_a_row():
    """Each named instance's parameters are written once under tests/:
    no other file passes a row's fields to `GeneratorParams` or spells
    them out as `gen` arguments."""
    rows = {row.fields: name for name, row in INSTANCES.items()}
    assert len(rows) == len(INSTANCES), "two rows with the same fields"
    found = [
        f"{path.name}:{line}: {rows[fields]}"
        for path in sorted(TESTS.glob("*.py")) if path.name != "instances.py"
        for line, fields in _spelled_fields(ast.parse(path.read_text(encoding="utf-8")))
        if fields in rows
    ]
    assert found == []
