"""Greedy alignment repair over a precomputed conflict list.

The repair loop removes one mapping at a time until no conflict set is
unresolved.  An optional confidence-interval filter first discharges
sets whose lowest-confidence mapping is clearly worse than the rest;
the greedy step then always removes a mapping occurring in the most
unresolved sets, breaking ties by lowest confidence, then by a
depth-limited lookahead, then canonically.
"""

from __future__ import annotations

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
    JSON.  `search_depth` bounds the tie-breaking lookahead;
    `use_clusters` processes independent conflict clusters separately.
    """

    epsilon: float = -1.0
    search_depth: int = 2
    use_clusters: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.search_depth < 0:
            raise ValueError("search_depth must be nonnegative")


@dataclass(frozen=True)
class RemovedMapping:
    mapping: Mapping
    cause: RemovalCause


@dataclass(frozen=True)
class RepairStats:
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


def _count_sim_candidates(sets: Sequence[ConflictSet]) -> list[Mapping]:
    """Mappings with maximal occurrence count, then minimal confidence."""
    counts: Counter[tuple] = Counter()
    by_key: dict[tuple, Mapping] = {}
    for s in sets:
        for m in s.mappings:
            counts[m.key] += 1
            by_key.setdefault(m.key, m)
    max_count = max(counts.values())
    tied = [by_key[k] for k, c in counts.items() if c == max_count]
    min_sim = min(m.confidence for m in tied)
    tied = [m for m in tied if m.confidence == min_sim]
    tied.sort(key=lambda m: m.key)
    return tied


def resolved_conflicts(
    sets: Sequence[ConflictSet], mapping: Mapping, depth: int
) -> int:
    """Conflict sets resolvable by removing `mapping` plus `depth` more
    greedy removals, each chosen among the residue's worst candidates."""
    hit = sum(1 for s in sets if mapping in s.mappings)
    if depth <= 0:
        return hit
    residue = tuple(s for s in sets if mapping not in s.mappings)
    if not residue:
        return hit
    best = 0
    for candidate in _count_sim_candidates(residue):
        score = resolved_conflicts(residue, candidate, depth - 1)
        if score > best:
            best = score
    return hit + best


def _select_worst(
    sets: Sequence[ConflictSet], search_depth: int
) -> tuple[Mapping, bool]:
    """One greedy pick; second value reports whether lookahead scores
    actually distinguished tied candidates."""
    candidates = _count_sim_candidates(sets)
    if len(candidates) == 1 or search_depth == 0:
        return candidates[0], False
    scored = [(resolved_conflicts(sets, m, search_depth), m) for m in candidates]
    best_score = max(score for score, _ in scored)
    decisive = any(score != best_score for score, _ in scored)
    winners = sorted((m for score, m in scored if score == best_score),
                     key=lambda m: m.key)
    return winners[0], decisive


def remove_mapping(
    sets: Sequence[ConflictSet], mapping: Mapping
) -> tuple[ConflictSet, ...]:
    """Residue after resolving every set that contains the mapping."""
    return tuple(s for s in sets if mapping not in s.mappings)


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

    pending: list[tuple[ConflictSet, ...]]
    if config.use_clusters:
        pending = list(disjoint_conflict_clusters(work.sets))
    else:
        pending = [work.sets] if len(work) else []

    clusters_processed = 0
    lookahead_tiebreaks = 0
    while pending:
        pending.sort(key=lambda sets: sets[0].key)
        sets = pending.pop(0)
        clusters_processed += 1
        worst, used_lookahead = _select_worst(sets, config.search_depth)
        if used_lookahead:
            lookahead_tiebreaks += 1
        removed.append(RemovedMapping(worst, RemovalCause.GREEDY))
        residue = remove_mapping(sets, worst)
        if residue:
            if config.use_clusters:
                pending.extend(disjoint_conflict_clusters(residue))
            else:
                pending.append(residue)

    removed_keys = {r.mapping.key for r in removed}
    return RepairResult(
        kept=Alignment(m for m in set_maps if m.key not in removed_keys),
        removed=tuple(removed),
        stats=RepairStats(
            clusters_processed=clusters_processed,
            lookahead_tiebreaks=lookahead_tiebreaks,
        ),
    )
