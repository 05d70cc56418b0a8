"""CI's scale runs on ROADMAP X (paper scale), C2 and C1, one row each in
`RUNS`: `python3 tests/scale_runs.py` runs every row and exits 1 if one
fails.  Tier-1 does not collect it.  Wall times are printed, not bounded."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
CLI = [sys.executable, "-m", "alignrepair"]


class Run(NamedTuple):
    gen: list[str]
    expect: tuple[str, str] | str  # the output files' sha256s, or the error line
    peak_mb: float | None = None  # bound on `repair`'s peak RSS
    check: bool = False  # run `check` on the produced and the repaired alignment


RUNS = {
    "X": Run(["--classes", "120000", "--mappings", "20000", "--disjoints", "300",
              "--noise", "0.2", "--seed", "5", "--max-depth", "25", "--branching", "2.0"],
             ("2238ba5435aa82bd6e820c0a7e2f5d079fa70d3a9cab13cf2b1b9f9432e11b4f",
              "302230f8817f3e323c55d92b481e350d1d96479070e38c759bca91465a0a1ddb"),
             peak_mb=300, check=True),
    "C2": Run(["--classes", "10000", "--mappings", "2000", "--disjoints", "100",
               "--noise", "0.4", "--seed", "5", "--max-depth", "25", "--branching", "2.0"],
              ("fb44a5e32916fdf73183c5627e8080e8c7b1ba562dc7a152d0e65dd1914a2143",
               "ce647754a3a110ad99d7b30411d6885e3a81bd8dc6f5b9389e07d4fa559eec45")),
    "C1": Run(["--classes", "10000", "--mappings", "2000", "--disjoints", "50",
               "--noise", "0.4", "--seed", "5", "--max-depth", "25", "--branching", "2.0"],
              "error: witness (a8434, b0451|b2290) exhausts the budget of 1000000 steps "
              "with its path pairs"),
}


def run(name: str, row: Run, d: Path) -> None:
    """Generate `row`'s instance into `d`, run `repair` as a direct child, so
    that `os.wait4` gives its own peak RSS, and check it: exit 0, no class left
    incoherent and the sha256s `row.expect` of the TSV and the report, or exit
    1 with the line `row.expect` on stderr and no output file."""
    start = time.perf_counter()
    subprocess.run([*CLI, "gen", *row.gen, "--out-dir", d], env=ENV,
                   stdout=subprocess.DEVNULL, check=True)
    generated = time.perf_counter()
    inputs = ["--onto1", d / "onto1.txt", "--onto2", d / "onto2.txt"]
    tsv, report = d / "repaired.tsv", d / "report.json"
    with subprocess.Popen([*CLI, "repair", *inputs, "--align", d / "produced.tsv",
                           "--out", tsv, "--report", report],
                          env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as child:
        stderr = child.stderr.read().decode()
        _, raw, usage = os.wait4(child.pid, 0)
        child.returncode = status = os.waitstatus_to_exitcode(raw)
    peak_mb = usage.ru_maxrss / 1024
    print(f"{name}: gen {generated - start:.2f} s; repair status {status}, wall "
          f"{time.perf_counter() - generated:.2f} s, peak RSS {peak_mb:.1f} MB", flush=True)
    if isinstance(row.expect, str):
        assert status == 1 and stderr == row.expect + "\n", (status, stderr)
        assert not tsv.exists() and not report.exists(), "repair left an output file"
        return
    assert status == 0, (status, stderr)
    incoherent = json.loads(report.read_text(encoding="utf-8"))["incoherent"]
    assert incoherent["after"] == 0, incoherent
    assert row.peak_mb is None or peak_mb < row.peak_mb, f"peak RSS {peak_mb:.1f} MB"
    shas = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (tsv, report))
    assert shas == row.expect, f"sha256 of the repaired TSV and the report: {shas}"
    if not row.check:
        return
    for align, count in ((d / "produced.tsv", incoherent["before"]), (tsv, 0)):
        start = time.perf_counter()
        lines = subprocess.run([*CLI, "check", *inputs, "--align", align], env=ENV,
                               stdout=subprocess.PIPE, check=True).stdout.decode().splitlines()
        print(f"{name}: check {align.name}: {lines[0]} incoherent, "
              f"wall {time.perf_counter() - start:.2f} s", flush=True)
        assert lines[0] == str(count) and len(lines) == count + 1, (align.name, lines[0])


if __name__ == "__main__":
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, row in RUNS.items():
            try:
                run(name, row, Path(tmp) / name)
            except (AssertionError, subprocess.CalledProcessError) as error:
                print(f"{name}: FAILED: {error}", flush=True)
                status = 1
    sys.exit(status)
