"""CLI surface: subcommands end to end on real files, exit codes, and
byte-stable reports."""

import json
import re

import pytest

from alignrepair import (
    EnumerationCapExceeded, RepairResult, RepairStats, generator, pipeline
)
from alignrepair.cli import SCHEMA_VERSION, cli_dispatch
from alignrepair.formats import load_inputs

F1_ONTO1 = """\
CLASS A1
CLASS B1
CLASS C1
CLASS D1
SUBCLASS A1 B1
DISJOINT B1 C1
"""

F1_ONTO2 = """\
CLASS A2
CLASS X2
SUBCLASS A2 X2
"""

F1_ALIGN = "A1\tA2\t=\t0.9\nC1\tA2\t>\t0.5\n"


@pytest.fixture
def f1_files(tmp_path):
    (tmp_path / "o1.txt").write_text(F1_ONTO1)
    (tmp_path / "o2.txt").write_text(F1_ONTO2)
    (tmp_path / "align.tsv").write_text(F1_ALIGN)
    return tmp_path


def _inputs(d):
    return [
        "--onto1", str(d / "o1.txt"),
        "--onto2", str(d / "o2.txt"),
        "--align", str(d / "align.tsv"),
    ]


class TestRepairCommand:
    def test_f1_pipeline(self, f1_files, capsys):
        out = f1_files / "repaired.tsv"
        report = f1_files / "report.json"
        status = cli_dispatch(
            ["repair", *_inputs(f1_files), "--out", str(out),
             "--report", str(report)]
        )
        assert status == 0
        assert out.read_text() == "A1\tA2\t=\t0.9\n"
        data = json.loads(report.read_text())
        assert data["repair"]["removed"] == 1
        assert data["repair"]["kept"] == 1
        assert data["incoherent"] == {"before": 2, "after": 0}
        assert data["conflicts"]["sets"] == 1

    def test_phase_lines_on_stderr(self, f1_files, capsys):
        """stderr holds one wall-time line per phase, in pipeline order,
        and nothing else."""
        status = cli_dispatch(
            ["repair", *_inputs(f1_files), "--out", str(f1_files / "repaired.tsv")]
        )
        assert status == 0
        lines = capsys.readouterr().err.splitlines()
        names = ["load", "merge", "fragments", "conflicts", "repair", "verify"]
        assert len(lines) == len(names)
        for name, line in zip(names, lines):
            assert re.fullmatch(rf"{name}: \d+\.\d{{3}}s", line), line

    def test_library_times_the_load_first(self, f1_files):
        """`repair_files`, which the command calls, is `repair_alignment`
        on the parsed files with the parse timed as a "load" phase."""
        paths = [f1_files / name for name in ("o1.txt", "o2.txt", "align.tsv")]
        run = pipeline.repair_files(*paths)
        direct = pipeline.repair_alignment(*load_inputs(*paths))
        assert list(run.phases) == ["load", *direct.phases]
        assert run.result.removed == direct.result.removed
        assert run.analysis.conflicts == direct.analysis.conflicts

    def test_flags_forwarded(self, f1_files, capsys):
        out = f1_files / "repaired.tsv"
        status = cli_dispatch(
            ["repair", *_inputs(f1_files), "--out", str(out),
             "--epsilon", "0.1", "--search-depth", "0", "--no-clusters"]
        )
        assert status == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"] == {
            "epsilon": 0.1, "search_depth": 0, "use_clusters": False
        }
        # 0.5 + 0.1 < 0.9 - 0.1: the filter removes the weak mapping
        assert data["repair"]["removed_filtered"] == 1

    def test_negative_epsilon_in_equals_form(self, f1_files, capsys):
        """argparse reads `--epsilon -1e-3` as two flags; the README gives
        the `--epsilon=VALUE` spelling, which must parse."""
        outputs = []
        for flag in (["--epsilon=-1e-3"], ["--epsilon", "-1"]):
            out = f1_files / "repaired.tsv"
            assert cli_dispatch(
                ["repair", *_inputs(f1_files), "--out", str(out), *flag]
            ) == 0
            outputs.append(out.read_text())
            out.unlink()
        assert outputs[0] == outputs[1]


class TestCheckCommand:
    def test_f1_prints_count_then_classes(self, f1_files, capsys):
        assert cli_dispatch(["check", *_inputs(f1_files)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2"
        assert lines[1:] == ["A1", "A2"]


class TestFragmentsCommand:
    def test_f1_stats(self, f1_files, capsys):
        assert cli_dispatch(["fragments", *_inputs(f1_files)]) == 0
        data = json.loads(capsys.readouterr().out)
        frag = data["fragments"]
        assert frag["total_classes"] == 6
        assert frag["core_classes"] == 4
        assert frag["core_pct"] == 66.7
        assert frag["checkset"] == 2
        assert frag["checkset_pct"] == 33.3


class TestConflictsCommand:
    def test_f1_stats(self, f1_files, capsys):
        assert cli_dispatch(["conflicts", *_inputs(f1_files)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conflicts"]["sets"] == 1
        assert data["conflicts"]["clusters"] == 1
        assert data["conflicts"]["set_size_histogram"] == {"2": 1}


class TestEvalCommand:
    def test_identity_scores_one(self, f1_files, capsys):
        status = cli_dispatch(
            ["eval", "--produced", str(f1_files / "align.tsv"),
             "--reference", str(f1_files / "align.tsv")]
        )
        assert status == 0
        data = json.loads(capsys.readouterr().out)
        assert data["precision"] == 1.0
        assert data["recall"] == 1.0
        assert data["f_measure"] == 1.0


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is dropped:
    the file reads as it would without one."""

    def _outputs(self, d, capsys):
        assert cli_dispatch(["check", *_inputs(d)]) == 0
        check = capsys.readouterr().out
        out, report = d / "repaired.tsv", d / "report.json"
        assert cli_dispatch(["repair", *_inputs(d), "--out", str(out),
                             "--report", str(report)]) == 0
        capsys.readouterr()
        return check, out.read_bytes(), report.read_bytes()

    @pytest.mark.parametrize("name", ["o1.txt", "o2.txt", "align.tsv"])
    def test_check_and_repair_read_a_marked_file_as_plain(
        self, f1_files, tmp_path, name, capsys
    ):
        plain = self._outputs(f1_files, capsys)
        marked = tmp_path / "marked"
        marked.mkdir()
        for f in ("o1.txt", "o2.txt", "align.tsv"):
            text = (f1_files / f).read_text()
            (marked / f).write_text("\ufeff" + text if f == name else text)
        assert self._outputs(marked, capsys) == plain

    def test_eval_reads_a_marked_file_as_plain(self, tmp_path, capsys):
        row = "A1\tA2\t=\t0.9\n"
        (tmp_path / "marked.tsv").write_text("\ufeff" + row, encoding="utf-8")
        (tmp_path / "plain.tsv").write_text(row, encoding="utf-8")
        assert cli_dispatch(["eval", "--produced", str(tmp_path / "marked.tsv"),
                             "--reference", str(tmp_path / "plain.tsv")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["precision"], data["recall"], data["f_measure"]) == (1.0, 1.0, 1.0)


class TestGenCommand:
    def test_writes_instance_files(self, tmp_path, capsys):
        out = tmp_path / "inst"
        status = cli_dispatch(
            ["gen", "--classes", "30", "--mappings", "10", "--disjoints", "2",
             "--noise", "0.3", "--seed", "7", "--out-dir", str(out)]
        )
        assert status == 0
        for name in ("onto1.txt", "onto2.txt", "produced.tsv",
                     "reference.tsv", "params.json"):
            assert (out / name).exists()

    def test_gen_then_repair_then_check_is_clean(self, tmp_path, capsys):
        out = tmp_path / "inst"
        cli_dispatch(
            ["gen", "--classes", "40", "--mappings", "12", "--disjoints", "3",
             "--noise", "0.4", "--seed", "3", "--out-dir", str(out)]
        )
        repaired = tmp_path / "repaired.tsv"
        status = cli_dispatch(
            ["repair", "--onto1", str(out / "onto1.txt"),
             "--onto2", str(out / "onto2.txt"),
             "--align", str(out / "produced.tsv"),
             "--out", str(repaired)]
        )
        assert status == 0
        capsys.readouterr()
        status = cli_dispatch(
            ["check", "--onto1", str(out / "onto1.txt"),
             "--onto2", str(out / "onto2.txt"),
             "--align", str(repaired)]
        )
        assert status == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"


class TestErrorsAndExitCodes:
    def test_missing_file_is_error_not_crash(self, tmp_path, capsys):
        status = cli_dispatch(
            ["check", "--onto1", str(tmp_path / "nope.txt"),
             "--onto2", str(tmp_path / "nope.txt"),
             "--align", str(tmp_path / "nope.tsv")]
        )
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, f1_files, capsys):
        status = cli_dispatch(["check", *_inputs(f1_files), "--frobnicate"])
        assert status == 2

    def test_semantic_error_reported(self, tmp_path, capsys):
        (tmp_path / "o1.txt").write_text("CLASS a\nSUBCLASS a b\n")
        (tmp_path / "o2.txt").write_text("CLASS z\n")
        (tmp_path / "al.tsv").write_text("")
        status = cli_dispatch(
            ["check", "--onto1", str(tmp_path / "o1.txt"),
             "--onto2", str(tmp_path / "o2.txt"),
             "--align", str(tmp_path / "al.tsv")]
        )
        assert status == 1
        assert "undeclared" in capsys.readouterr().err

    def test_enumeration_cap_is_error_not_crash(self, f1_files, capsys, monkeypatch):
        def over_budget(*args, **kwargs):
            raise EnumerationCapExceeded("label-set search exceeded 1 steps")

        monkeypatch.setattr(pipeline, "find_conflict_sets", over_budget)
        out = f1_files / "repaired.tsv"
        status = cli_dispatch(["repair", *_inputs(f1_files), "--out", str(out)])
        assert status == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_incoherent_repair_is_error_before_any_file(
        self, f1_files, capsys, monkeypatch
    ):
        def remove_nothing(conflicts, alignment, config):
            return RepairResult(alignment, (), RepairStats(0, 0))

        monkeypatch.setattr(pipeline, "repair", remove_nothing)
        out = f1_files / "repaired.tsv"
        report = f1_files / "report.json"
        status = cli_dispatch(["repair", *_inputs(f1_files), "--out", str(out),
                               "--report", str(report)])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repair left 2 incoherent classes\n"
        assert not out.exists() and not report.exists()

    def test_unwritable_report_leaves_no_output(self, f1_files, capsys):
        out = f1_files / "repaired.tsv"
        report = f1_files / "missing" / "report.json"
        status = cli_dispatch(["repair", *_inputs(f1_files), "--out", str(out),
                               "--report", str(report)])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2]")
        assert not out.exists() and not report.exists()

    def test_out_and_report_naming_one_file_is_error(self, f1_files, capsys):
        """Two spellings of one path: the report would overwrite the
        repaired alignment, so the run writes neither."""
        same = f1_files / "same.json"
        status = cli_dispatch(["repair", *_inputs(f1_files), "--out", str(same),
                               "--report", str(f1_files / "." / "same.json")])
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out and --report name the same file\n"
        assert not same.exists()

    def test_class_declared_on_both_sides_is_error(self, tmp_path, capsys):
        (tmp_path / "o1.txt").write_text("CLASS P\nCLASS Q\n")
        (tmp_path / "o2.txt").write_text("CLASS Q\nCLASS R\n")
        (tmp_path / "al.tsv").write_text("")
        status = cli_dispatch(
            ["check", "--onto1", str(tmp_path / "o1.txt"),
             "--onto2", str(tmp_path / "o2.txt"),
             "--align", str(tmp_path / "al.tsv")]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: class ids must be unique across both "
                                "ontologies ('Q' appears on both sides)\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_rejected(self, f1_files, capsys, value):
        out = f1_files / "repaired.tsv"
        report = f1_files / "report.json"
        status = cli_dispatch(
            ["repair", *_inputs(f1_files), "--out", str(out),
             "--report", str(report), f"--epsilon={value}"]
        )
        assert status == 1
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_negative_search_depth_rejected(self, f1_files, capsys):
        out = f1_files / "repaired.tsv"
        report = f1_files / "report.json"
        status = cli_dispatch(
            ["repair", *_inputs(f1_files), "--out", str(out),
             "--report", str(report), "--search-depth", "-1"]
        )
        assert status == 1
        assert "search_depth must be nonnegative" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_branching_rejected(self, tmp_path, capsys, value):
        out = tmp_path / "instance"
        status = cli_dispatch(
            ["gen", "--classes", "20", "--mappings", "5", "--branching", value,
             "--out-dir", str(out)]
        )
        assert status == 1
        assert "branching must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_impossible_pair_count_rejected_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_draw(params):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(generator, "generate_instance", no_draw)
        out = tmp_path / "instance"
        status = cli_dispatch(
            ["gen", "--classes", "10", "--mappings", "2", "--disjoints", "20000",
             "--out-dir", str(out)]
        )
        assert status == 1
        assert "10000 pairs on side 1, but 10 classes form at most 45" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_gen_that_cannot_write_a_file_leaves_none(self, tmp_path, capsys):
        """`params.json` is written last; when it cannot be, the four
        instance files written before it are removed."""
        out = tmp_path / "instance"
        (out / "params.json").mkdir(parents=True)
        status = cli_dispatch(
            ["gen", "--classes", "20", "--mappings", "5", "--out-dir", str(out)]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(out.rglob("*")) == [out / "params.json"]

    def test_exhausted_draws_name_the_last_failure(self, tmp_path, capsys):
        out = tmp_path / "instance"
        status = cli_dispatch(
            ["gen", "--classes", "5", "--mappings", "2", "--disjoints", "18",
             "--out-dir", str(out)]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "the last failed: could not place 9 disjoint pairs" in err
        assert not out.exists()


class TestByteDeterminism:
    def test_two_identical_pipelines_byte_identical(self, tmp_path, capsys):
        blobs = []
        for run in ("one", "two"):
            d = tmp_path / run
            cli_dispatch(
                ["gen", "--classes", "35", "--mappings", "12", "--disjoints",
                 "3", "--noise", "0.4", "--seed", "17", "--out-dir", str(d)]
            )
            repaired = d / "repaired.tsv"
            report = d / "report.json"
            cli_dispatch(
                ["repair", "--onto1", str(d / "onto1.txt"),
                 "--onto2", str(d / "onto2.txt"),
                 "--align", str(d / "produced.tsv"),
                 "--out", str(repaired), "--report", str(report)]
            )
            blobs.append(
                tuple(
                    (d / n).read_bytes()
                    for n in ("onto1.txt", "onto2.txt", "produced.tsv",
                              "reference.tsv", "params.json",
                              "repaired.tsv", "report.json")
                )
            )
        assert blobs[0] == blobs[1]


def test_every_document_opens_with_schema_version_and_task(f1_files, capsys):
    """The repair report, the fragments, conflicts and eval reports on
    standard output, and gen's params.json."""
    report, gen = f1_files / "report.json", f1_files / "gen"
    documents = {}
    for argv in (["repair", *_inputs(f1_files), "--out", str(f1_files / "r.tsv"),
                  "--report", str(report)],
                 ["fragments", *_inputs(f1_files)],
                 ["conflicts", *_inputs(f1_files)],
                 ["eval", "--produced", str(f1_files / "align.tsv"),
                  "--reference", str(f1_files / "align.tsv")],
                 ["gen", "--classes", "20", "--mappings", "5", "--disjoints", "2",
                  "--out-dir", str(gen)]):
        assert cli_dispatch(argv) == 0
        documents[argv[0]] = capsys.readouterr().out
    documents["repair"] = report.read_text()
    documents["gen"] = (gen / "params.json").read_text()
    for task, text in documents.items():
        first_two = list(json.loads(text).items())[:2]
        assert first_two == [("schema_version", SCHEMA_VERSION), ("task", task)], task
