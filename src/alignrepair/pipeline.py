"""The analysis half of the pipeline, wired up once: merged view, core
fragments, then conflict enumeration.  Repair and verification run on
its result."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .conflicts import ConflictList, count_incoherent_classes, find_conflict_sets
from .fragments import CoreFragments, extract_core_fragments
from .model import Alignment, Ontology, merged_view


@dataclass(frozen=True)
class Analysis:
    """Everything repair needs, plus the wall time of each phase.

    `phases` maps "merge", "fragments" and "conflicts", in that order, to
    seconds; "merge" includes counting the incoherent classes.
    """

    incoherent_before: int
    fragments: CoreFragments
    conflicts: ConflictList
    phases: dict[str, float]


def analyze(o1: Ontology, o2: Ontology, alignment: Alignment) -> Analysis:
    """Build the merged view, extract the core fragments, and enumerate
    every minimal conflict set of the alignment."""
    start = time.perf_counter()
    view = merged_view(o1, o2, alignment)
    incoherent_before, _ = count_incoherent_classes(view)
    merged = time.perf_counter()
    fragments = extract_core_fragments(o1, o2, alignment, view=view)
    extracted = time.perf_counter()
    # The start classes already contain the checkset.
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
