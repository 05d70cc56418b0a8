"""The repair pipeline, wired up once: merged view, core fragments,
conflict enumeration (`analyze`), then repair and verification
(`repair_alignment`, which runs the whole chain; `repair_files` parses
its inputs first)."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .conflicts import ConflictList, find_conflict_sets
from .formats import load_inputs
from .fragments import CoreFragments, extract_core_fragments
from .greedy import RepairConfig, RepairResult, repair
from .model import Alignment, Ontology, merged_view


@dataclass(frozen=True)
class Analysis:
    """Everything repair needs, plus the wall time of each phase.

    `phases` maps "merge", "fragments" and "conflicts", in that order, to
    seconds; "merge" includes counting the incoherent classes.  The
    search's step counts are `conflicts.work`.
    """

    incoherent_before: int
    fragments: CoreFragments
    conflicts: ConflictList
    phases: dict[str, float]


@dataclass(frozen=True)
class RepairRun:
    """One run of the whole pipeline.

    `incoherent_after` counts the incoherent classes that the kept
    mappings leave, on the analysis view, which `analysis.fragments`
    keeps.  `phases` maps "merge", "fragments", "conflicts", "repair"
    and "verify", in that order, to seconds; a run of `repair_files`
    puts "load", the reading and parsing of its inputs, first.
    """

    analysis: Analysis
    result: RepairResult
    incoherent_after: int
    phases: dict[str, float]


def analyze(o1: Ontology, o2: Ontology, alignment: Alignment) -> Analysis:
    """Build the merged view, extract the core fragments, and enumerate
    every minimal conflict set of the alignment."""
    start = time.perf_counter()
    view = merged_view(o1, o2, alignment)
    incoherent_before = len(view.incoherent_ids())
    merged = time.perf_counter()
    fragments = extract_core_fragments(o1, o2, alignment, view=view)
    extracted = time.perf_counter()
    # The start classes already hold the checkset, the divergence starts
    # and the endpoints.
    conflicts = find_conflict_sets(fragments, (), alignment)
    done = time.perf_counter()
    return Analysis(
        incoherent_before=incoherent_before,
        fragments=fragments,
        conflicts=conflicts,
        phases={
            "merge": merged - start,
            "fragments": extracted - merged,
            "conflicts": done - extracted,
        },
    )


def repair_alignment(o1: Ontology, o2: Ontology, alignment: Alignment,
                     config: RepairConfig = RepairConfig()) -> RepairRun:
    """Analyze the alignment, repair it, and count the incoherent
    classes that the kept mappings leave."""
    analysis = analyze(o1, o2, alignment)
    start = time.perf_counter()
    result = repair(analysis.conflicts, alignment, config)
    repaired = time.perf_counter()
    incoherent_after = len(analysis.fragments.view.incoherent_ids(result.kept))
    done = time.perf_counter()
    return RepairRun(
        analysis=analysis,
        result=result,
        incoherent_after=incoherent_after,
        phases={
            **analysis.phases,
            "repair": repaired - start,
            "verify": done - repaired,
        },
    )


def repair_files(onto1, onto2, align,
                 config: RepairConfig = RepairConfig()) -> RepairRun:
    """Read and parse the two ontology files and the alignment file in a
    timed "load" phase, then run `repair_alignment` on them."""
    start = time.perf_counter()
    o1, o2, alignment = load_inputs(onto1, onto2, align)
    loaded = time.perf_counter()
    run = repair_alignment(o1, o2, alignment, config)
    return replace(run, phases={"load": loaded - start, **run.phases})
