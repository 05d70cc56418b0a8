"""Greedy alignment repair over a precomputed conflict list.

The repair loop removes one mapping at a time until no conflict set is
unresolved.  An optional confidence-interval filter first discharges
sets whose lowest-confidence mapping is clearly worse than the rest;
the greedy step then removes a mapping occurring in the most unresolved
sets, breaking ties by lowest confidence, then by the most sets that
`search_depth` further greedy removals resolve, then canonically.  All
of it runs on `ConflictList.masks` (bit i is `mappings[i]`, in key
order) and one confidence per bit; `repair` looks a `Mapping` up only
to report it or to keep it.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .conflicts import ConflictList, disjoint_conflict_clusters
from .graphs import iter_bits
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
    masks: Sequence[int], confidences: Sequence[float], epsilon: float
) -> tuple[tuple[int, ...], list[int]]:
    """Discharge conflict sets with a clearly worst mapping.

    Sets are visited in descending order of their highest confidence,
    then in list order.  In an unresolved set with lowest and
    second-lowest confidences c1 and c2, the lowest-confidence bit is
    removed when c1 + epsilon < c2 - epsilon; every set holding a
    removed bit counts as resolved.  One ordered pass, no fixpoint
    iteration.  Returns the unresolved masks and the removed bits.
    """
    if epsilon < 0:
        raise ValueError("filter_conflicts requires epsilon >= 0")
    top = [max(confidences[b] for b in iter_bits(mask)) for mask in masks]
    ordered = sorted(range(len(masks)), key=lambda k: (-top[k], k))
    hit = 0
    removed: list[int] = []
    for k in ordered:
        if masks[k] & hit:
            continue
        members = sorted(iter_bits(masks[k]), key=lambda b: (confidences[b], b))
        if len(members) < 2:
            continue  # no second-lowest confidence to compare against
        c1, c2 = (confidences[b] for b in members[:2])
        if c1 + epsilon < c2 - epsilon:
            hit |= 1 << members[0]
            removed.append(members[0])
    return tuple(mask for mask in masks if not mask & hit), removed


def _residue(masks: Sequence[int], bit: int) -> tuple[int, ...]:
    """The sets that removing `bit` leaves unresolved."""
    return tuple(mask for mask in masks if not mask >> bit & 1)


def _worst_candidates(
    masks: Sequence[int], confidences: Sequence[float]
) -> tuple[int, list[int]]:
    """The top occurrence count, and the ascending bits with that count
    and the lowest confidence among them."""
    counts = Counter(b for mask in masks for b in iter_bits(mask))
    top = max(counts.values())
    tied = [b for b, c in counts.items() if c == top]
    low = min(confidences[b] for b in tied)
    return top, sorted(b for b in tied if confidences[b] == low)


def _lookahead(masks: Sequence[int], confidences: Sequence[float], depth: int) -> int:
    """The most sets that `depth` further greedy removals resolve.

    Each removal takes one of the residue's worst candidates.  They all
    resolve the same `top` sets, so the last level only counts.
    """
    if depth == 0 or not masks:
        return 0
    top, candidates = _worst_candidates(masks, confidences)
    if depth == 1:
        return top
    return top + max(_lookahead(_residue(masks, b), confidences, depth - 1)
                     for b in candidates)


def _select_worst(
    masks: Sequence[int], confidences: Sequence[float], search_depth: int
) -> tuple[int, bool]:
    """One greedy pick, as a bit, and whether the lookahead told tied
    candidates apart.  Tied candidates resolve the same number of sets
    themselves, so only the lookaheads of their residues are compared."""
    _, candidates = _worst_candidates(masks, confidences)
    if len(candidates) == 1 or search_depth == 0:
        return candidates[0], False
    scores = [_lookahead(_residue(masks, b), confidences, search_depth)
              for b in candidates]
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
    mappings, masks = conflicts.mappings, conflicts.masks
    confidences = [m.confidence for m in mappings]
    removed: list[RemovedMapping] = []

    if config.epsilon >= 0:
        masks, filtered = filter_conflicts(masks, confidences, config.epsilon)
        removed.extend(RemovedMapping(mappings[b], RemovalCause.FILTERED)
                       for b in filtered)

    # Clustering confines each pick, and its lookahead, to one cluster:
    # a lookahead that empties its cluster cannot count sets elsewhere,
    # so the two modes can remove different mappings (ROADMAP item 7).
    split = (disjoint_conflict_clusters if config.use_clusters
             else lambda masks: (masks,) if masks else ())

    # The heap keys each cluster by its first set's position in the list;
    # clusters share no set, so it takes them in the order of a sort.
    position = {mask: k for k, mask in enumerate(masks)}
    pending = [(position[cluster[0]], cluster) for cluster in split(masks)]
    heapq.heapify(pending)
    clusters_processed = 0
    lookahead_tiebreaks = 0
    while pending:
        _, cluster = heapq.heappop(pending)
        clusters_processed += 1
        worst, decisive = _select_worst(cluster, confidences, config.search_depth)
        lookahead_tiebreaks += decisive
        removed.append(RemovedMapping(mappings[worst], RemovalCause.GREEDY))
        for rest in split(_residue(cluster, worst)):
            heapq.heappush(pending, (position[rest[0]], rest))

    removed_keys = {r.mapping.key for r in removed}
    return RepairResult(
        kept=Alignment(m for m in set_maps if m.key not in removed_keys),
        removed=tuple(removed),
        stats=RepairStats(
            clusters_processed=clusters_processed,
            lookahead_tiebreaks=lookahead_tiebreaks,
        ),
    )
