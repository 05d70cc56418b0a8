"""Golden output pins: sha256 of the CLI outputs on two small generated
instances and of `repair`'s outputs on the three benchmark workloads and
on ROADMAP L, recorded once and asserted on every run.

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
from scale_runs import Run, run

INSTANCES = {
    "bushy": ["--classes", "400", "--mappings", "120", "--disjoints", "8",
              "--noise", "0.4", "--seed", "3"],
    "deep": ["--classes", "300", "--mappings", "80", "--disjoints", "6",
             "--noise", "0.3", "--seed", "7", "--max-depth", "30",
             "--branching", "1.15"],
}

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
        "repair.tsv":
            "a8c994a5927c6a2b745b261723fb1b03740985fb30cee1885e45264f3cf16142",
        "repair.json":
            "882b1a53959269fda4a0b0295a39cfb0abeaf896d77aa49c8347db48e17985ef",
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
        "repair.tsv":
            "4235f5b8cb078c3b493f9f7fb11de38a8d9b548cd08034110180da0a198b019d",
        "repair.json":
            "0add1edf0fa85ee8c4d9792c70994fb4d31971fd2ce2c48122e66910a067fe21",
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

# sha256 of the repr of [(key, witness class, witness pair)] of every
# conflict set `analyze` finds: the CLI prints only statistics, so these
# pin the sets and the witness each one keeps.
GOLDEN_CONFLICTS = {
    "bushy": "e17f1fb2957a91127f98bcf4cda77b60f3b807935b7e9cfb9338c9ae29a8475a",
    "deep": "134142ead2751b6495a6659875fa31754fa68151431b9c2547b8b5accdefff86",
}

# The command outputs and the conflict rows again, on
# `conftest.renamed_instance(..., 1)` of each instance.
GOLDEN_RENAMED = {
    "bushy": {
        "repair.tsv":
            "5708a0aef178d9ef3f51913819f646e246bd04f58bea4ff8985b6550e9fb2cbf",
        "repair.json":
            "882b1a53959269fda4a0b0295a39cfb0abeaf896d77aa49c8347db48e17985ef",
        "repair-eps.tsv":
            "f102a05eb2ea35adf349cb6ac17a37945d56e3c7d8f855e9ce4d7e4d00d4724f",
        "repair-eps.json":
            "fd69f5011d4a94d30735d26f5c50312198a3b0afb5f87a97657049cb6c84a4a9",
        "check":
            "d436ca72c90969629f506c1784b5f81225a3e56d251998d0cb4b747ead6c6d72",
        "fragments":
            "83d522c49818e81b4629f50213af4d5b24c4edcbc4857d8e235b489e788d886b",
        "conflicts":
            "a95efa8a7be803dcce06aa00b44802f8bb03f1f5dee444349bf25958332c4afa",
        "conflict-rows":
            "cdce9ae722f38b488720638bc476c1b1d068e372320dc229763bfd71118a9d99",
    },
    "deep": {
        "repair.tsv":
            "83e922de5bb54c66ee3a1becd7987ba812823781dfda8fe8cf64ef9749ec50a5",
        "repair.json":
            "0add1edf0fa85ee8c4d9792c70994fb4d31971fd2ce2c48122e66910a067fe21",
        "repair-eps.tsv":
            "03e25e9026a4f3541774c6403bcd5181dc533f77463af01b5c2cbd75ab0a61f6",
        "repair-eps.json":
            "846c99856ccb832ab43862860f252d1a7704c1e4b5b46aff05530b2a0fe830bd",
        "check":
            "6a583fa41be50b27a6fc56227bdc45cf580b8388a291df4263443dd11ddf0b6c",
        "fragments":
            "dd4d5028ce14e48c8917bcebccdcd7f7f4b851b3cf5abd9483fd0b17436d2e60",
        "conflicts":
            "402371c1d3c9e5c32a4525914cd463a4517b2f1c8546cf1166394e76c80e8799",
        "conflict-rows":
            "cbf0997d9b636f8eed5ac1abcbae3ef7e8a653063be0a4a15e2d62d3c7369eac",
    },
}

# The repaired TSV and the report of `repair` on the three benchmark
# workloads (perfbench/workloads.py), generated unshuffled: ROADMAP M
# with the defaults; conflict-dense, the one workload that runs the
# confidence filter; and sparse-wide, where the merged view and verify
# weigh most.  perfbench/README.md lists the first 16 hex digits of each.
WORKLOADS = {
    "dense-align": (
        ["--classes", "10000", "--mappings", "2000", "--disjoints", "50",
         "--noise", "0.4", "--seed", "21", "--max-depth", "25",
         "--branching", "2.0"],
        [],
        "7fde06bf48b27305ef7807d9eebad25394863d24f27d01fd96758401bdc9dad3",
        "0e9b8d048b0750edd059eb8f2db965e71279bf4b37d8dceedac0754848f917f7",
    ),
    "conflict-dense": (
        ["--classes", "3000", "--mappings", "600", "--disjoints", "30",
         "--noise", "0.4", "--seed", "21", "--max-depth", "25",
         "--branching", "2.0"],
        ["--epsilon", "0.05"],
        "99b172b580844860b06c9e83d9a1afffc50709468d7c124a45fb09b1af9203ff",
        "b85d14b1b23c7acaa5b02ddb4c2342586e3ff26d698c03c97f3d471f41990424",
    ),
    "sparse-wide": (
        ["--classes", "20000", "--mappings", "200", "--disjoints", "50",
         "--noise", "0.25", "--seed", "11", "--max-depth", "60",
         "--branching", "1.15"],
        [],
        "1d2abbf3faf2c4f8c044ff40b91c2f04eb5f5f6b140e87de561cc52123668679",
        "40b1cbc1351894f53db9d301ff85eb349c0765a20bd4bab89790897073a204f4",
    ),
}

# ROADMAP L: 12,665 core classes, a 6,900-class checkset and 497
# conflicts, with cycles and multi-parent components throughout.  The
# repaired TSV, the report, and the conflict rows as GOLDEN_CONFLICTS
# hashes them.
ROADMAP_L = (
    ["--classes", "40000", "--mappings", "4000", "--disjoints", "100",
     "--noise", "0.4", "--seed", "5", "--max-depth", "25", "--branching", "2.0"],
    "d5bcef46a077ff9893552681e70690467d11c5210a75b8ac8292e7b565270856",
    "678e8f44a030db9c3837cf121713f925af45c6ca9f997ce4902b7e4c784969bd",
    "783589d238864277b0fdc04f963ef528892f0c35c9c20030bb26000be35f9310",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(d, gen_args, capsys) -> dict[str, str]:
    """sha256 of every generated file and of every command's output;
    "eval" scores the repaired alignment against the reference."""
    assert cli_dispatch(["gen", *gen_args, "--out-dir", str(d)]) == 0
    capsys.readouterr()
    out = {
        name: _sha((d / name).read_bytes())
        for name in ("onto1.txt", "onto2.txt", "produced.tsv",
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


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_cli_outputs_match_golden_hashes(name, tmp_path, capsys):
    assert _outputs(tmp_path, INSTANCES[name], capsys) == GOLDEN[name]


def _generated(d, name, capsys):
    """(o1, o2, produced) of a golden instance, generated into `d`."""
    assert cli_dispatch(["gen", *INSTANCES[name], "--out-dir", str(d)]) == 0
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
    rows = [(s.key, s.witness_class, s.witness_pair) for s in analysis.conflicts]
    return _sha(repr(rows).encode())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_conflict_list_matches_golden_hash(name, tmp_path, capsys):
    instance = _generated(tmp_path, name, capsys)
    assert _conflict_rows_sha(*instance) == GOLDEN_CONFLICTS[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_renamed_instance_matches_golden_hashes(name, tmp_path, capsys):
    """The golden instances with every class renamed (seed 1), so that
    the two sides interleave in global-id order and names follow no
    hierarchy order; "conflict-rows" hashes the conflict list as
    GOLDEN_CONFLICTS does."""
    o1, o2, align = renamed_instance(*_generated(tmp_path, name, capsys), 1)
    d = tmp_path / "renamed"
    d.mkdir()
    (d / "onto1.txt").write_text(write_ontology_file(o1))
    (d / "onto2.txt").write_text(write_ontology_file(o2))
    (d / "produced.tsv").write_text(write_alignment_tsv(align))
    out = _command_outputs(d, capsys)
    out["conflict-rows"] = _conflict_rows_sha(o1, o2, align)
    assert out == GOLDEN_RENAMED[name]


def _repair_shas(d, gen_args, flags, capsys) -> tuple[str, str]:
    """sha256 of the repaired TSV and the report of `repair`, with
    `flags`, on the instance `gen_args` generates into `d`."""
    assert cli_dispatch(["gen", *gen_args, "--out-dir", str(d)]) == 0
    tsv, report = d / "repaired.tsv", d / "report.json"
    assert cli_dispatch(
        ["repair", "--onto1", str(d / "onto1.txt"), "--onto2", str(d / "onto2.txt"),
         "--align", str(d / "produced.tsv"),
         "--out", str(tsv), "--report", str(report), *flags]
    ) == 0
    capsys.readouterr()
    return _sha(tsv.read_bytes()), _sha(report.read_bytes())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_repair_matches_golden_hashes(name, tmp_path, capsys):
    gen_args, flags, tsv_sha, report_sha = WORKLOADS[name]
    assert _repair_shas(tmp_path, gen_args, flags, capsys) == (tsv_sha, report_sha)


def test_roadmap_l_matches_golden_hashes(tmp_path, capsys, monkeypatch):
    """The conflict rows come from the `repair` run's own analysis, so
    L is analysed once."""
    gen_args, tsv_sha, report_sha, rows_sha = ROADMAP_L
    analyses = []

    def recorded(*args, analyze=alignrepair.pipeline.analyze):
        analyses.append(analyze(*args))
        return analyses[-1]

    monkeypatch.setattr(alignrepair.pipeline, "analyze", recorded)
    assert _repair_shas(tmp_path, gen_args, [], capsys) == (tsv_sha, report_sha)
    [analysis] = analyses
    assert _rows_sha(analysis) == rows_sha


def test_scale_runner_on_bushy(tmp_path):
    """`tests/scale_runs.py`, which only CI runs at scale, on the bushy
    instance: `gen` and `repair` as children, the golden hashes and
    both `check` runs."""
    golden = GOLDEN["bushy"]
    row = Run(INSTANCES["bushy"], (golden["repair.tsv"], golden["repair.json"]),
              check=True)
    run("bushy", row, tmp_path / "bushy")
