"""Golden output pins: sha256 of the CLI outputs on two small generated
instances and of `repair`'s outputs on the three benchmark workloads and
on ROADMAP L, recorded once and asserted on every run.  Each instance's
parameters, its `repair` hashes and its conflict-row hash are its row of
the instance table (`tests/instances.py`); the other command outputs of
`bushy` and `deep` are pinned here.

The determinism tests compare two runs of the same code; these hashes
compare against earlier code, so a refactor that claims byte-identical
outputs is held to it.  Update a value only for a change that is meant
to alter an output, and say so where the change is described.
"""

import hashlib

import pytest

import alignrepair.pipeline
from alignrepair import (
    analyze,
    parse_alignment_tsv,
    parse_ontology_file,
    write_alignment_tsv,
    write_ontology_file,
)
from alignrepair.cli import cli_dispatch

from conftest import renamed_instance
from instances import INSTANCES, WORKLOADS, gen_args
from scale_runs import run

GOLDEN = {
    "bushy": {
        "onto1.txt":
            "beb2a8d2525eef955ea3ad6e14a95fae750e6163e3d296c0db7204951a41c298",
        "onto2.txt":
            "8fc41a599684cb5e1601516fb05c3f5a16bc1e162f7f8bbd4a0b9e8c2bc28aa3",
        "produced.tsv":
            "05ee8aacb965fe9f6157604b2529aeeeb5eacb359ac3bb199aaaa2ae25a6ceee",
        "reference.tsv":
            "88548a8f8cd87128aa4e1d7ff5f8ceca04a5ed8130ea0fcfc605ec3287c387bb",
        "params.json":
            "20e3cc3a166c0a888ba0277f76ad80e56276b300f0b53f12260a41d6389a7d33",
        "repair-eps.tsv":
            "b52b9cb22923bb5bbc6e3b56a45682e277f928cfba7b589256e8739636b7937f",
        "repair-eps.json":
            "fd69f5011d4a94d30735d26f5c50312198a3b0afb5f87a97657049cb6c84a4a9",
        "check":
            "5aea69b3c9ed30f1f094ced43cc793354934d6307ea79835a475bc778c296009",
        "fragments":
            "83d522c49818e81b4629f50213af4d5b24c4edcbc4857d8e235b489e788d886b",
        "conflicts":
            "a95efa8a7be803dcce06aa00b44802f8bb03f1f5dee444349bf25958332c4afa",
        "eval":
            "46c1ee66db0a5262024667c5e73930912d02c1554c1bb7130c9b3e07c7165c6c",
    },
    "deep": {
        "onto1.txt":
            "c8da148a8fd4dffdc87d2a0a48a82adbdc9aa4285877022ba2ef48148a9c0df4",
        "onto2.txt":
            "3d28dd17a98765296383a228766b15b918f2586dbf05600cf43b943cb60500f7",
        "produced.tsv":
            "3867acc032d5c5b90ff132d6bf82306ddaeb3acd878e951aad9c8a651e3f5fbc",
        "reference.tsv":
            "29b128cf2da6b5a54e3abfc67f20332dca7454ec086ab8453010f1ffed8593f0",
        "params.json":
            "84d9e366e11d12b74a0f7021782aec20e8c1b268511efd3a15193d2a4df660cd",
        "repair-eps.tsv":
            "7be80719a485f80a264a21bc729faba9ebfa9b3d6d44218af9b058a90176354c",
        "repair-eps.json":
            "846c99856ccb832ab43862860f252d1a7704c1e4b5b46aff05530b2a0fe830bd",
        "check":
            "874318d7d07f2c864ffb86c9e607e1add8747e8662ea01aed17a4040e50f07d6",
        "fragments":
            "dd4d5028ce14e48c8917bcebccdcd7f7f4b851b3cf5abd9483fd0b17436d2e60",
        "conflicts":
            "402371c1d3c9e5c32a4525914cd463a4517b2f1c8546cf1166394e76c80e8799",
        "eval":
            "0f2779a6c0dac31d768bba7bdae728ad732630f6588f771a3520aa0ed10b31bd",
    },
}

# The command outputs and the conflict rows again, on
# `conftest.renamed_instance(..., 1)` of each instance.  Renaming leaves
# the outputs in SAME_WHEN_RENAMED as they were.
SAME_WHEN_RENAMED = ("repair.json", "repair-eps.json", "fragments", "conflicts")
GOLDEN_RENAMED = {
    "bushy": {
        "repair.tsv":
            "5708a0aef178d9ef3f51913819f646e246bd04f58bea4ff8985b6550e9fb2cbf",
        "repair-eps.tsv":
            "f102a05eb2ea35adf349cb6ac17a37945d56e3c7d8f855e9ce4d7e4d00d4724f",
        "check":
            "d436ca72c90969629f506c1784b5f81225a3e56d251998d0cb4b747ead6c6d72",
        "conflict-rows":
            "cdce9ae722f38b488720638bc476c1b1d068e372320dc229763bfd71118a9d99",
    },
    "deep": {
        "repair.tsv":
            "83e922de5bb54c66ee3a1becd7987ba812823781dfda8fe8cf64ef9749ec50a5",
        "repair-eps.tsv":
            "03e25e9026a4f3541774c6403bcd5181dc533f77463af01b5c2cbd75ab0a61f6",
        "check":
            "6a583fa41be50b27a6fc56227bdc45cf580b8388a291df4263443dd11ddf0b6c",
        "conflict-rows":
            "cbf0997d9b636f8eed5ac1abcbae3ef7e8a653063be0a4a15e2d62d3c7369eac",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden(name) -> dict[str, str]:
    """GOLDEN's outputs of `name`, with `repair`'s from its table row."""
    tsv, report = INSTANCES[name].expect
    return {**GOLDEN[name], "repair.tsv": tsv, "repair.json": report}


def _outputs(d, name, capsys) -> dict[str, str]:
    """sha256 of every generated file and of every command's output;
    "eval" scores the repaired alignment against the reference."""
    assert cli_dispatch(["gen", *gen_args(INSTANCES[name]), "--out-dir", str(d)]) == 0
    capsys.readouterr()
    out = {
        file: _sha((d / file).read_bytes())
        for file in ("onto1.txt", "onto2.txt", "produced.tsv",
                     "reference.tsv", "params.json")
    }
    out.update(_command_outputs(d, capsys))
    assert cli_dispatch(["eval", "--produced", str(d / "repair.tsv"),
                         "--reference", str(d / "reference.tsv")]) == 0
    out["eval"] = _sha(capsys.readouterr().out.encode())
    return out


def _command_outputs(d, capsys) -> dict[str, str]:
    """sha256 of every command's output on the instance in `d`."""
    out = {}
    inputs = ["--onto1", str(d / "onto1.txt"), "--onto2", str(d / "onto2.txt"),
              "--align", str(d / "produced.tsv")]
    for label, flags in (("repair", []), ("repair-eps", ["--epsilon", "0.05"])):
        tsv, report = d / f"{label}.tsv", d / f"{label}.json"
        status = cli_dispatch(["repair", *inputs, "--out", str(tsv),
                               "--report", str(report), *flags])
        assert status == 0
        assert capsys.readouterr().out == report.read_text()
        out[f"{label}.tsv"] = _sha(tsv.read_bytes())
        out[f"{label}.json"] = _sha(report.read_bytes())
    for command in ("check", "fragments", "conflicts"):
        assert cli_dispatch([command, *inputs]) == 0
        out[command] = _sha(capsys.readouterr().out.encode())
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_golden_hashes(name, tmp_path, capsys):
    assert _outputs(tmp_path, name, capsys) == _golden(name)


def _generated(d, name, capsys):
    """(o1, o2, produced) of a golden instance, generated into `d`."""
    assert cli_dispatch(["gen", *gen_args(INSTANCES[name]), "--out-dir", str(d)]) == 0
    capsys.readouterr()
    return _parsed(d)


def _parsed(d):
    """(o1, o2, produced) of the instance in `d`."""
    o1, o2 = (
        parse_ontology_file((d / f"onto{side}.txt").read_text(), side)
        for side in (1, 2)
    )
    return o1, o2, parse_alignment_tsv((d / "produced.tsv").read_text())


def _conflict_rows_sha(o1, o2, align) -> str:
    return _rows_sha(analyze(o1, o2, align))


def _rows_sha(analysis) -> str:
    """The table's `rows_sha` of an analysis."""
    rows = [(s.key, s.witness_class, s.witness_pair) for s in analysis.conflicts]
    return _sha(repr(rows).encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_conflict_list_matches_golden_hash(name, tmp_path, capsys):
    instance = _generated(tmp_path, name, capsys)
    assert _conflict_rows_sha(*instance) == INSTANCES[name].rows_sha


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_renamed_instance_matches_golden_hashes(name, tmp_path, capsys):
    """The golden instances with every class renamed (seed 1), so that
    the two sides interleave in global-id order and names follow no
    hierarchy order; "conflict-rows" hashes the conflict list as the
    table's `rows_sha` does."""
    o1, o2, align = renamed_instance(*_generated(tmp_path, name, capsys), 1)
    d = tmp_path / "renamed"
    d.mkdir()
    (d / "onto1.txt").write_text(write_ontology_file(o1))
    (d / "onto2.txt").write_text(write_ontology_file(o2))
    (d / "produced.tsv").write_text(write_alignment_tsv(align))
    out = _command_outputs(d, capsys)
    out["conflict-rows"] = _conflict_rows_sha(o1, o2, align)
    golden = _golden(name)
    assert out == {**GOLDEN_RENAMED[name],
                   **{key: golden[key] for key in SAME_WHEN_RENAMED}}


def _repair_shas(d, row, capsys) -> tuple[str, str]:
    """sha256 of the repaired TSV and the report of `repair`, with the
    row's flags, on the row's instance generated into `d`."""
    assert cli_dispatch(["gen", *gen_args(row), "--out-dir", str(d)]) == 0
    tsv, report = d / "repaired.tsv", d / "report.json"
    assert cli_dispatch(
        ["repair", "--onto1", str(d / "onto1.txt"), "--onto2", str(d / "onto2.txt"),
         "--align", str(d / "produced.tsv"),
         "--out", str(tsv), "--report", str(report), *row.flags]
    ) == 0
    capsys.readouterr()
    return _sha(tsv.read_bytes()), _sha(report.read_bytes())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_repair_matches_golden_hashes(name, tmp_path, capsys):
    """The three benchmark workloads, generated unshuffled.
    perfbench/README.md lists the first 16 hex digits of each hash."""
    row = WORKLOADS[name]
    assert _repair_shas(tmp_path, row, capsys) == row.expect


def test_roadmap_l_matches_golden_hashes(tmp_path, capsys, monkeypatch):
    """The conflict rows come from the `repair` run's own analysis, so
    L is analysed once."""
    row = INSTANCES["L"]
    analyses = []

    def recorded(*args, analyze=alignrepair.pipeline.analyze):
        analyses.append(analyze(*args))
        return analyses[-1]

    monkeypatch.setattr(alignrepair.pipeline, "analyze", recorded)
    assert _repair_shas(tmp_path, row, capsys) == row.expect
    [analysis] = analyses
    assert _rows_sha(analysis) == row.rows_sha


def test_scale_runner_on_bushy(tmp_path):
    """`tests/scale_runs.py`, which only CI runs at scale, on the bushy
    instance: `gen` and `repair` as children, the golden hashes and
    both `check` runs."""
    run("bushy", INSTANCES["bushy"], tmp_path / "bushy")
