"""The CLI as its own process: `python -m alignrepair` gives the outputs
and exit statuses of in-process `cli_dispatch`, each command loads only
the modules it runs, and the package name `repair` stays the function
whatever submodule is imported first."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alignrepair.cli import cli_dispatch

SRC = Path(__file__).resolve().parent.parent / "src"
# Without PYTHONUNBUFFERED, output to a pipe stays in the buffer until
# `main` flushes it, the case the exit path must handle.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(SRC)

GEN_ARGS = ["gen", "--classes", "40", "--mappings", "12", "--disjoints", "3",
            "--noise", "0.4", "--seed", "3"]
PHASE_LINE = re.compile(r"(\w+): \d+\.\d{3}s")

# Runs one command in a fresh interpreter and writes the names of the
# loaded modules, one a line, to the file named first.
LOADED_MODULES = """\
import sys
from alignrepair.cli import cli_dispatch
status = cli_dispatch(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write("\\n".join(sorted(sys.modules)))
sys.exit(status)
"""


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                          timeout=60, **kwargs)


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    out = tmp_path_factory.mktemp("instance")
    assert python("-m", "alignrepair", *GEN_ARGS, "--out-dir", str(out)).returncode == 0
    return out


def inputs(d: Path) -> list[str]:
    return ["--onto1", str(d / "onto1.txt"), "--onto2", str(d / "onto2.txt"),
            "--align", str(d / "produced.tsv")]


def loaded_modules(tmp_path: Path, argv: list[str]) -> set[str]:
    listing = tmp_path / "modules.txt"
    run = python("-c", LOADED_MODULES, str(listing), *argv)
    assert run.returncode == 0, run.stderr
    return set(listing.read_text(encoding="utf-8").split())


def test_check_loads_only_what_it_runs(instance, tmp_path):
    modules = loaded_modules(tmp_path, ["check", *inputs(instance)])
    ours = {m for m in modules if m.startswith("alignrepair.")}
    assert ours == {"alignrepair.cli", "alignrepair.formats", "alignrepair.model",
                    "alignrepair.graphs"}
    assert "dataclasses" not in modules
    assert "json" not in modules


def test_gen_loads_no_repair_machinery(tmp_path):
    modules = loaded_modules(tmp_path, [*GEN_ARGS, "--out-dir", str(tmp_path / "g")])
    assert "alignrepair.generator" in modules
    for name in ("conflicts", "fragments", "pipeline", "greedy", "oracle"):
        assert f"alignrepair.{name}" not in modules


def test_repair_check_and_gen_match_in_process_runs(instance, tmp_path, capsys):
    """Same stdout bytes, files and stderr phase names as `cli_dispatch`."""
    commands = {
        "check": ["check", *inputs(instance)],
        "repair": ["repair", *inputs(instance), "--epsilon", "0.05",
                   "--out", "{out}/repaired.tsv", "--report", "{out}/report.json"],
        "gen": [*GEN_ARGS, "--out-dir", "{out}/gen"],
    }
    for name, argv in commands.items():
        runs = []
        for where in ("process", "in-process"):
            out = tmp_path / name / where
            out.mkdir(parents=True)
            args = [a.format(out=out) for a in argv]
            if where == "process":
                run = python("-m", "alignrepair", *args)
                status, stdout, stderr = run.returncode, run.stdout.decode(), run.stderr.decode()
            else:
                status = cli_dispatch(args)
                stdout, stderr = capsys.readouterr()
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            phases = [PHASE_LINE.fullmatch(line).group(1) for line in stderr.splitlines()]
            runs.append((status, stdout.replace(str(out), "OUT"), files, phases))
        assert runs[0] == runs[1], name
        assert runs[0][0] == 0
    assert runs[0][1] == "wrote instance to OUT/gen\n"


def test_bad_input_exits_1_with_an_error_line(tmp_path):
    (tmp_path / "onto1.txt").write_text("CLASS a\nSUBCLASS a b\n")
    (tmp_path / "onto2.txt").write_text("CLASS z\n")
    (tmp_path / "produced.tsv").write_text("")
    run = python("-m", "alignrepair", "check", *inputs(tmp_path))
    assert run.returncode == 1
    assert run.stdout == b""
    assert run.stderr.decode() == (
        f"error: {tmp_path / 'onto1.txt'}: undeclared class 'b' in SUBCLASS a b\n")


# One fault per input: a model error, a format error, a byte that is not
# UTF-8, and a format error in eval's reference.
BAD_INPUT = {
    "onto1.txt": b"SUBCLASS a1 nowhere\n",
    "onto2.txt": b"FOO\n",
    "produced.tsv": b"caf\xe9\tb\t=\n",
    "reference.tsv": b"one field\n",
}
FLAG = {"onto1.txt": "--onto1", "onto2.txt": "--onto2", "produced.tsv": "--align"}


@pytest.mark.parametrize("command, bad", [
    *((command, name) for command in ("check", "fragments", "conflicts", "repair")
      for name in FLAG),
    ("eval", "produced.tsv"), ("eval", "reference.tsv"),
])
def test_every_input_error_names_its_file(instance, tmp_path, command, bad):
    for name in BAD_INPUT:
        (tmp_path / name).write_bytes((instance / name).read_bytes())
    with open(tmp_path / bad, "ab") as f:
        f.write(BAD_INPUT[bad])
    if command == "eval":
        argv = ["--produced", str(tmp_path / "produced.tsv"),
                "--reference", str(tmp_path / "reference.tsv")]
    else:
        argv = [arg for name, flag in FLAG.items() for arg in (flag, str(tmp_path / name))]
    if command == "repair":
        argv += ["--out", str(tmp_path / "repaired.tsv")]
    run = python("-m", "alignrepair", command, *argv)
    stderr = run.stderr.decode()
    assert run.returncode == 1, stderr
    assert stderr.startswith(f"error: {tmp_path / bad}: ") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "repaired.tsv").exists()


def test_help_exits_0():
    run = python("-m", "alignrepair", "--help")
    assert run.returncode == 0
    assert run.stdout.decode().startswith("usage: alignrepair")


def test_console_script_is_cli_main():
    """The installed `alignrepair` runs what `python -m alignrepair` runs;
    CI starts the installed script once.  Read as text: Python 3.10 has no
    `tomllib`."""
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'alignrepair = "alignrepair.cli:main"'


@pytest.mark.xfail(strict=True, raises=pytest.PytestUnraisableExceptionWarning)
def test_an_unclosed_file_fails_its_test(tmp_path):
    """pyproject.toml's `filterwarnings` make an unclosed file fail the
    test that leaked it; without them this test passes, and strict xfail
    fails."""
    (tmp_path / "f.txt").write_text("x", encoding="utf-8")
    assert open(tmp_path / "f.txt", encoding="utf-8").read() == "x"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_stdout_flush_exits_1(instance):
    with open("/dev/full", "wb") as full:
        run = subprocess.run(
            [sys.executable, "-m", "alignrepair", "check", *inputs(instance)],
            env=ENV, stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert run.returncode == 1
    assert run.stderr.decode().startswith("error: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_repair_that_cannot_write_stdout_leaves_no_file(instance, tmp_path):
    out, report = tmp_path / "repaired.tsv", tmp_path / "report.json"
    with open("/dev/full", "wb") as full:
        run = subprocess.run(
            [sys.executable, "-m", "alignrepair", "repair", *inputs(instance),
             "--out", str(out), "--report", str(report)],
            env=ENV, stdout=full, stderr=subprocess.PIPE, timeout=60,
        )
    assert run.returncode == 1
    assert run.stderr.decode().startswith("error: ")
    assert not out.exists() and not report.exists()


def test_closed_stdout_is_an_error_line_and_leaves_no_file(instance, tmp_path):
    """A process started with descriptor 1 closed has no `sys.stdout`:
    every command exits 1 with one error line, not a traceback, and
    `repair` and `gen` remove the files they wrote."""
    out, report = tmp_path / "repaired.tsv", tmp_path / "report.json"
    gen = tmp_path / "gen"
    for argv in (["repair", *inputs(instance), "--out", str(out),
                  "--report", str(report)],
                 ["check", *inputs(instance)],
                 ["fragments", *inputs(instance)],
                 ["conflicts", *inputs(instance)],
                 ["eval", "--produced", str(instance / "produced.tsv"),
                  "--reference", str(instance / "reference.tsv")],
                 [*GEN_ARGS, "--out-dir", str(gen)]):
        run = subprocess.run(
            [sys.executable, "-m", "alignrepair", *argv], env=ENV,
            stderr=subprocess.PIPE, timeout=60, preexec_fn=lambda: os.close(1),
        )
        stderr = run.stderr.decode()
        assert run.returncode == 1, stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert "Traceback" not in stderr
    assert not out.exists() and not report.exists()
    assert [p for p in gen.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("first", ["alignrepair.pipeline", "alignrepair.greedy",
                                   "alignrepair.repair"])
def test_package_repair_is_the_function_after_any_import(first):
    code = (f"import {first}\n"
            "from alignrepair import repair\n"
            "import alignrepair.greedy\n"
            "assert repair is alignrepair.greedy.repair, repair\n"
            "assert alignrepair.repair is repair\n")
    run = python("-c", code)
    assert run.returncode == 0, run.stderr.decode()


def test_old_repair_module_provides_the_traced_run_names():
    """perfbench/traced.py imports `alignrepair.repair` by name."""
    code = ("import importlib\n"
            "import alignrepair.greedy as greedy\n"
            "module = importlib.import_module('alignrepair.repair')\n"
            "for name in ('repair', 'RepairConfig', 'RemovalCause'):\n"
            "    assert getattr(module, name) is getattr(greedy, name), name\n")
    run = python("-c", code)
    assert run.returncode == 0, run.stderr.decode()
