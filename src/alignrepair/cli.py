"""Command-line surface: repair, check, fragments, conflicts, eval, gen.

Reports are JSON objects with stable key order so that repeated runs
with the same inputs are byte-identical; `_report` builds every one.
Every input file is read by `formats`.  Phase wall times go to stderr
only; they never enter report files.

Each command writes nothing (`gen` only creates its directory): it
returns its output files (path -> text, in write order), its
standard-output text and its standard-error text, and `cli_dispatch`
writes them.  A failed write
removes the files written so far, so exit 1 leaves no output file.

Each command imports the modules it runs when it runs, so a process
loads only those: `check` loads `formats`, `model` and `graphs`, and
neither `dataclasses` nor `json`.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from .formats import (
    load_alignment,
    load_inputs,
    write_alignment_tsv,
    write_ontology_file,
)
from .model import EnumerationCapExceeded, GeneratorError

SCHEMA_VERSION = 1


def _pct(part: int, total: int) -> float:
    return round(100.0 * part / total, 1) if total else 0.0


def _stdout():
    """Standard output; None when the process started with it closed,
    which this reports as the error a write would raise."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "standard output is closed")
    return sys.stdout


def _input_section(view) -> dict:
    o1, o2 = view.sides
    return {
        "classes_side1": len(o1),
        "classes_side2": len(o2),
        "mappings": len(view.mapping_edges),
        "disjoint_pairs": len(view.disjoint),
    }


def _fragment_section(fragments) -> dict:
    total = len(fragments.view.names)
    return {
        "total_classes": total,
        "core_classes": len(fragments.core),
        "core_pct": _pct(len(fragments.core), total),
        "checkset": len(fragments.checkset),
        "checkset_pct": _pct(len(fragments.checkset), total),
    }


def _report(task: str, **sections) -> str:
    """One JSON document: `schema_version`, `task`, then `sections` in
    the order given."""
    import json

    document = {"schema_version": SCHEMA_VERSION, "task": task, **sections}
    return json.dumps(document, indent=2) + "\n"


def _cmd_repair(args) -> tuple[dict, str, str]:
    if args.report and Path(args.report).resolve() == Path(args.out).resolve():
        raise ValueError("--out and --report name the same file")
    from dataclasses import asdict

    from .conflicts import conflict_statistics
    from .greedy import RemovalCause, RepairConfig
    from .pipeline import repair_files

    config = RepairConfig(
        epsilon=args.epsilon,
        search_depth=args.search_depth,
        use_clusters=not args.no_clusters,
    )
    run = repair_files(args.onto1, args.onto2, args.align, config)
    analysis, result = run.analysis, run.result
    if run.incoherent_after:
        raise ValueError(f"repair left {run.incoherent_after} incoherent classes")

    filtered = sum(1 for r in result.removed if r.cause is RemovalCause.FILTERED)
    text = _report(
        "repair",
        inputs=_input_section(analysis.fragments.view),
        fragments=_fragment_section(analysis.fragments),
        conflicts=conflict_statistics(analysis.conflicts),
        repair={
            "removed": len(result.removed),
            "removed_filtered": filtered,
            "removed_greedy": len(result.removed) - filtered,
            "kept": len(result.kept),
            "clusters_processed": result.stats.clusters_processed,
            "lookahead_tiebreaks": result.stats.lookahead_tiebreaks,
        },
        incoherent={"before": analysis.incoherent_before, "after": run.incoherent_after},
        config=asdict(config),
    )
    files = {args.out: write_alignment_tsv(result.kept)}
    if args.report:
        files[args.report] = text
    phases = "".join(f"{name}: {seconds:.3f}s\n" for name, seconds in run.phases.items())
    return files, text, phases


def _cmd_check(args) -> tuple[dict, str, str]:
    from .model import merged_view

    view = merged_view(*load_inputs(args.onto1, args.onto2, args.align))
    bad = sorted(view.incoherent_ids())
    lines = [str(len(bad)), *(view.names[g] for g in bad)]
    return {}, "\n".join(lines) + "\n", ""


def _cmd_fragments(args) -> tuple[dict, str, str]:
    from .fragments import extract_core_fragments

    fragments = extract_core_fragments(*load_inputs(args.onto1, args.onto2, args.align))
    return {}, _report("fragments", inputs=_input_section(fragments.view),
                       fragments=_fragment_section(fragments)), ""


def _cmd_conflicts(args) -> tuple[dict, str, str]:
    from .conflicts import conflict_statistics
    from .pipeline import analyze

    analysis = analyze(*load_inputs(args.onto1, args.onto2, args.align))
    return {}, _report("conflicts", inputs=_input_section(analysis.fragments.view),
                       conflicts=conflict_statistics(analysis.conflicts)), ""


def _cmd_eval(args) -> tuple[dict, str, str]:
    from .oracle import precision_recall_fmeasure

    produced, reference = load_alignment(args.produced), load_alignment(args.reference)
    ev = precision_recall_fmeasure(produced, reference)
    return {}, _report(
        "eval",
        produced_mappings=len(produced),
        reference_mappings=len(reference),
        precision=round(ev.precision, 6),
        recall=round(ev.recall, 6),
        f_measure=round(ev.f_measure, 6),
    ), ""


def _cmd_gen(args) -> tuple[dict, str, str]:
    from dataclasses import asdict

    from .generator import GeneratorParams, generate_instance

    params = GeneratorParams(
        classes_per_side=args.classes,
        mapping_count=args.mappings,
        disjoint_pairs=args.disjoints,
        noise_rate=args.noise,
        seed=args.seed,
        max_depth=args.max_depth,
        branching=args.branching,
    )
    o1, o2, produced, reference = generate_instance(params)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        out / "onto1.txt": write_ontology_file(o1),
        out / "onto2.txt": write_ontology_file(o2),
        out / "produced.tsv": write_alignment_tsv(produced),
        out / "reference.tsv": write_alignment_tsv(reference),
    }
    files[out / "params.json"] = _report(
        "gen", params=asdict(params), files=[path.name for path in files])
    return files, f"wrote instance to {out}\n", ""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignrepair",
        description="Detect and repair disjointness-driven incoherence "
        "in ontology alignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("--onto1", required=True, help="side-1 ontology file")
        p.add_argument("--onto2", required=True, help="side-2 ontology file")
        p.add_argument("--align", required=True, help="alignment TSV file")

    p = sub.add_parser("repair", help="repair an alignment")
    add_inputs(p)
    p.add_argument("--epsilon", type=float, default=-1.0,
                   help="confidence interval; negative disables filtering "
                   "(write --epsilon=VALUE for values such as -1e-3)")
    p.add_argument("--search-depth", type=int, default=2,
                   help="tie-breaking lookahead depth")
    p.add_argument("--no-clusters", action="store_true",
                   help="process all conflict sets as one list")
    p.add_argument("--out", required=True, help="repaired alignment output")
    p.add_argument("--report", help="also write the JSON report to this file")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("check", help="count incoherent classes")
    add_inputs(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fragments", help="core fragment statistics")
    add_inputs(p)
    p.set_defaults(func=_cmd_fragments)

    p = sub.add_parser("conflicts", help="conflict set statistics")
    add_inputs(p)
    p.set_defaults(func=_cmd_conflicts)

    p = sub.add_parser("eval", help="precision/recall against a reference")
    p.add_argument("--produced", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--classes", type=int, default=60)
    p.add_argument("--mappings", type=int, default=15)
    p.add_argument("--disjoints", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--branching", type=float, default=2.0)
    p.set_defaults(func=_cmd_gen)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    written = []
    try:
        files, out, err = args.func(args)
        for path, text in files.items():
            with open(path, "wb") as f:  # UTF-8, with "\n" line ends everywhere
                written.append(path)  # opened, so ours to remove if the write fails
                f.write(text.encode())
        stdout = _stdout()
        stdout.write(out)
        stdout.flush()
    except (ValueError, OSError, GeneratorError, EnumerationCapExceeded) as exc:
        for path in written:
            os.unlink(path)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(err)
    return 0


def main() -> NoReturn:
    """Run the command in `sys.argv` and end the process with its status.

    Every output file is closed when `cli_dispatch` returns, so once the
    standard streams are flushed the process ends at once, without
    tearing down the interpreter object by object.  A failed flush
    exits 1, with an error line unless the command already failed.
    """
    # The engine makes no reference cycles (tests/test_memory.py checks
    # it), so a one-shot process loses nothing by skipping cyclic GC.
    gc.disable()
    status = cli_dispatch(sys.argv[1:])
    try:
        _stdout().flush()
    except (OSError, ValueError) as exc:
        if status == 0:
            print(f"error: standard output: {exc}", file=sys.stderr)
        status = 1
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        status = 1
    os._exit(status)


if __name__ == "__main__":
    main()
