"""CI's scale runs on ROADMAP X (paper scale), C2 and C1, the rows of
`RUNS` from the instance table (`tests/instances.py`):
`python3 tests/scale_runs.py` runs every row and exits 1 if one fails.
Tier-1 does not collect it.  Wall times are printed, not bounded."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from instances import INSTANCES, Instance, gen_args

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
CLI = [sys.executable, "-m", "alignrepair"]


RUNS = {name: INSTANCES[name] for name in ("X", "C2", "C1")}


def run(name: str, row: Instance, d: Path) -> None:
    """Generate `row`'s instance into `d`, run `repair` as a direct child, so
    that `os.wait4` gives its own peak RSS, and check it: exit 0, no class left
    incoherent and the sha256s `row.expect` of the TSV and the report, or exit
    1 with the line `row.expect` on stderr and no output file."""
    start = time.perf_counter()
    subprocess.run([*CLI, "gen", *gen_args(row), "--out-dir", d], env=ENV,
                   stdout=subprocess.DEVNULL, check=True)
    generated = time.perf_counter()
    inputs = ["--onto1", d / "onto1.txt", "--onto2", d / "onto2.txt"]
    tsv, report = d / "repaired.tsv", d / "report.json"
    with subprocess.Popen([*CLI, "repair", *inputs, "--align", d / "produced.tsv",
                           "--out", tsv, "--report", report, *row.flags],
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
