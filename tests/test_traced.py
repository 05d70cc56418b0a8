"""The benchmark's traced run (perfbench/traced.py) still drives the
library, and counts what `alignrepair repair --report` reports."""

import importlib
import json
from pathlib import Path

from alignrepair.cli import cli_dispatch

from instances import INSTANCES, gen_args

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_counters_match_the_cli_report(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("traced")
    inst = tmp_path / "inst"
    assert cli_dispatch(
        ["gen", *gen_args(INSTANCES["readme"]), "--out-dir", str(inst)]
    ) == 0
    inputs = [
        "--onto1", str(inst / "onto1.txt"),
        "--onto2", str(inst / "onto2.txt"),
        "--align", str(inst / "produced.tsv"),
    ]
    report_file = tmp_path / "report.json"
    assert cli_dispatch(
        ["repair", *inputs, "--out", str(tmp_path / "cli.tsv"),
         "--report", str(report_file)]
    ) == 0
    spans_file = tmp_path / "spans.json"
    assert traced.main(
        [*inputs, "--out", str(tmp_path / "traced.tsv"), "--spans", str(spans_file),
         "--run-id", "smoke", "--memory"]
    ) == 0

    report = json.loads(report_file.read_text())
    traced_run = json.loads(spans_file.read_text())
    counters = traced_run["counters"]
    assert report["conflicts"]["sets"] > 0
    expected = {
        "fragments.core_classes": report["fragments"]["core_classes"],
        "fragments.checkset_classes": report["fragments"]["checkset"],
        "conflicts.sets": report["conflicts"]["sets"],
        "conflicts.clusters": report["conflicts"]["clusters"],
        "conflicts.incoherent_before": report["incoherent"]["before"],
        "repair.removed_filtered": report["repair"]["removed_filtered"],
        "repair.removed_greedy": report["repair"]["removed_greedy"],
    }
    assert {name: counters[name] for name in expected} == expected
    assert (tmp_path / "traced.tsv").read_bytes() == (tmp_path / "cli.tsv").read_bytes()
    spans = traced_run["spans"]
    assert set(traced.TIME_METRICS) <= set(traced.layer_metrics([spans], spans))
