"""Greedy alignment repair over a precomputed conflict list.

The repair loop removes one mapping at a time until no conflict set is
unresolved.  An optional confidence-interval filter first discharges
sets whose lowest-confidence mapping is clearly worse than the rest;
the greedy step then removes a mapping occurring in the most unresolved
sets, breaking ties by lowest confidence, then by the most sets that
`search_depth` further greedy removals resolve, then canonically.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .conflicts import ConflictList, ConflictSet, disjoint_conflict_clusters
from .model import Alignment, Mapping


class RemovalCause(str, Enum):
    FILTERED = "filtered"
    GREEDY = "greedy"


@dataclass(frozen=True)
class RepairConfig:
    """Knobs of the repair loop.

    A negative epsilon disables the confidence filter entirely; a
    non-finite one is rejected, since the report could not hold it as
    JSON.  `search_depth`, an int, bounds the tie-breaking lookahead;
    `use_clusters` processes independent conflict clusters separately.
    """

    epsilon: float = -1.0
    search_depth: int = 2
    use_clusters: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if type(self.search_depth) is not int:
            raise ValueError("search_depth must be an int")
        if self.search_depth < 0:
            raise ValueError("search_depth must be nonnegative")


@dataclass(frozen=True)
class RemovedMapping:
    mapping: Mapping
    cause: RemovalCause


@dataclass(frozen=True)
class RepairStats:
    """Counters of the greedy phase.  Each greedy pick takes one cluster
    off the queue, so `clusters_processed` always equals the greedy
    removals; `lookahead_tiebreaks` counts the picks where the lookahead
    told tied candidates apart."""

    clusters_processed: int
    lookahead_tiebreaks: int


@dataclass(frozen=True)
class RepairResult:
    kept: Alignment
    removed: tuple[RemovedMapping, ...]
    stats: RepairStats


def filter_conflicts(
    conflicts: ConflictList, epsilon: float
) -> tuple[ConflictList, list[Mapping]]:
    """Discharge conflict sets with a clearly worst mapping.

    Sets are visited in descending order of their highest-confidence
    mapping.  In an unresolved set with lowest and second-lowest
    confidences c1 and c2, the lowest-confidence mapping is removed when
    c1 + epsilon < c2 - epsilon; every set containing a removed mapping
    counts as resolved.  One ordered pass, no fixpoint iteration.
    """
    if epsilon < 0:
        raise ValueError("filter_conflicts requires epsilon >= 0")
    ordered = sorted(
        conflicts,
        key=lambda s: (-max(m.confidence for m in s.mappings), s.key),
    )
    removed_keys: set[tuple] = set()
    removed: list[Mapping] = []
    for s in ordered:
        if any(m.key in removed_keys for m in s.mappings):
            continue
        members = sorted(s.mappings, key=lambda m: (m.confidence, m.key))
        if len(members) < 2:
            continue  # no second-lowest confidence to compare against
        c1 = members[0].confidence
        c2 = members[1].confidence
        if c1 + epsilon < c2 - epsilon:
            removed_keys.add(members[0].key)
            removed.append(members[0])
    remaining = ConflictList(
        s for s in conflicts if not any(m.key in removed_keys for m in s.mappings)
    )
    return remaining, removed


def _residue(sets: Sequence[ConflictSet], m: Mapping) -> tuple[ConflictSet, ...]:
    """The sets that removing `m` leaves unresolved."""
    return tuple(s for s in sets if m not in s.mappings)


def _worst_candidates(sets: Sequence[ConflictSet]) -> tuple[int, list[Mapping]]:
    """The top occurrence count, and the mappings with that count and the
    lowest confidence among them, in key order."""
    counts = Counter(m for s in sets for m in s.mappings)
    top = max(counts.values())
    tied = [m for m, c in counts.items() if c == top]
    low = min(m.confidence for m in tied)
    return top, sorted((m for m in tied if m.confidence == low),
                       key=lambda m: m.key)


def _lookahead(sets: Sequence[ConflictSet], depth: int) -> int:
    """The most sets that `depth` further greedy removals resolve.

    Each removal takes one of the residue's worst candidates.  They all
    resolve the same `top` sets, so the last level only counts.
    """
    if depth == 0 or not sets:
        return 0
    top, candidates = _worst_candidates(sets)
    if depth == 1:
        return top
    return top + max(_lookahead(_residue(sets, m), depth - 1) for m in candidates)


def _select_worst(
    sets: Sequence[ConflictSet], search_depth: int
) -> tuple[Mapping, bool]:
    """One greedy pick, and whether the lookahead told tied candidates
    apart.  Tied candidates resolve the same number of sets themselves,
    so only the lookaheads of their residues are compared."""
    _, candidates = _worst_candidates(sets)
    if len(candidates) == 1 or search_depth == 0:
        return candidates[0], False
    scores = [_lookahead(_residue(sets, m), search_depth) for m in candidates]
    best = max(scores)
    return candidates[scores.index(best)], min(scores) != best


def repair(
    conflicts: ConflictList,
    set_maps: Alignment,
    config: RepairConfig = RepairConfig(),
) -> RepairResult:
    """Remove mappings until every conflict set is resolved.

    Deterministic: clusters are processed in canonical order and all tie
    chains end in the canonical mapping order, so identical inputs yield
    identical results including removal order.
    """
    removed: list[RemovedMapping] = []
    work = conflicts

    if config.epsilon >= 0:
        work, filtered = filter_conflicts(work, config.epsilon)
        removed.extend(RemovedMapping(m, RemovalCause.FILTERED) for m in filtered)

    # Clustering confines each pick, and its lookahead, to one cluster:
    # a lookahead that empties its cluster cannot count sets elsewhere,
    # so the two modes can remove different mappings (ROADMAP item 7).
    split = (disjoint_conflict_clusters if config.use_clusters
             else lambda sets: (sets,) if sets else ())

    # Clusters share no set, so their first keys are distinct and the
    # heap takes them in the same order as a sort would.
    pending = [(sets[0].key, sets) for sets in split(work.sets)]
    heapq.heapify(pending)
    clusters_processed = 0
    lookahead_tiebreaks = 0
    while pending:
        _, sets = heapq.heappop(pending)
        clusters_processed += 1
        worst, decisive = _select_worst(sets, config.search_depth)
        lookahead_tiebreaks += decisive
        removed.append(RemovedMapping(worst, RemovalCause.GREEDY))
        for rest in split(_residue(sets, worst)):
            heapq.heappush(pending, (rest[0].key, rest))

    removed_keys = {r.mapping.key for r in removed}
    return RepairResult(
        kept=Alignment(m for m in set_maps if m.key not in removed_keys),
        removed=tuple(removed),
        stats=RepairStats(
            clusters_processed=clusters_processed,
            lookahead_tiebreaks=lookahead_tiebreaks,
        ),
    )
