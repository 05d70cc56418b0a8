"""Minimal conflict-set enumeration over core fragments.

A conflict set is a minimal set of mappings whose edges, added to the
reduced fragment structure, place some class under both members of a
disjoint pair.  Enumeration searches backward from each disjointness
endpoint for the minimal mapping-label sets of walks into it, all
endpoints together and in order of label-set size; a witness's
conflicts are unions of one label set per pair member.  A label set that
contains another settled at the same node, or strictly contains a
conflict already found, is dropped: neither can lead to a new minimal
conflict (the second is the pruning rule of Reiter's hitting-set tree).

A `ConflictList` holds each set as an int mask over its own mappings in
key order; the clusters, the statistics and `greedy.py` read only these.
It also carries the search's `SearchWork`, the counts its cap charges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .fragments import CoreFragments
from .graphs import iter_bits
from .model import Alignment, ClassId, EnumerationCapExceeded, Mapping, MergedGraph


@dataclass(frozen=True)
class ConflictSet:
    """A minimal culprit set of mappings for one incoherence witness."""

    mappings: frozenset[Mapping]
    witness_class: ClassId
    witness_pair: tuple[ClassId, ClassId]

    @cached_property
    def key(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(m.key for m in self.mappings))

    def __len__(self) -> int:
        return len(self.mappings)

    def __repr__(self) -> str:
        ordered = sorted(self.mappings, key=lambda m: m.key)
        members = ", ".join(m.describe() for m in ordered)
        return f"ConflictSet({{{members}}} @ {self.witness_class.id})"


@dataclass(frozen=True)
class SearchWork:
    """The work of one conflict search: label sets settled (an
    endpoint's own empty set aside), unions formed, and unions pruned
    because they hold a found conflict.  A step is one settled set or
    one union; `max_work` caps `settled + unions`."""

    settled: int = 0
    unions: int = 0
    pruned: int = 0


class ConflictList:
    """Deduplicated, canonically ordered antichain of conflict sets.

    The input must already be an antichain: no set strictly contains
    another; `find_conflict_sets` yields only minimal sets.  Of sets
    with equal mappings, the one with the smallest witness is kept; the
    sets are ordered by key.  `mappings` is the union of their mappings
    in key order, and `masks` holds one int per set: bit i stands for
    `mappings[i]`.  Ascending bit tuples order the masks as keys do.
    `work` is the search's ledger, all zeros for a list built by hand;
    equality ignores it.
    """

    __slots__ = ("sets", "mappings", "masks", "work")

    def __init__(self, sets: Iterable[ConflictSet] = (),
                 work: SearchWork = SearchWork()):
        by_key: dict[tuple, ConflictSet] = {}
        for s in sorted(
            sets, key=lambda s: (s.key, s.witness_class, s.witness_pair)
        ):
            by_key.setdefault(s.key, s)
        self.sets: tuple[ConflictSet, ...] = tuple(by_key.values())
        members = {m.key: m for s in self.sets for m in s.mappings}
        bit = {k: i for i, k in enumerate(sorted(members))}
        self.mappings: tuple[Mapping, ...] = tuple(members[k] for k in bit)
        self.masks = tuple(sum(1 << bit[k] for k in s.key) for s in self.sets)
        self.work = work

    def __iter__(self) -> Iterator[ConflictSet]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __getitem__(self, i: int) -> ConflictSet:
        return self.sets[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictList):
            return NotImplemented
        return self.sets == other.sets

    def __repr__(self) -> str:
        return f"ConflictList({len(self.sets)} sets)"


def contains_conflict(mask: int, by_low: dict[int, list[int]]) -> bool:
    """True when an indexed mask is a strict subset of `mask`.

    `by_low` maps a lowest bit to the nonzero masks whose lowest bit it
    is, so a subset of `mask` is found under one of `mask`'s own bits.
    This is the antichain rule: a mask holding another conflict is not a
    minimal conflict.
    """
    rest = mask
    while rest:
        low = rest & -rest
        for f in by_low.get(low, ()):
            if f & mask == f and f != mask:
                return True
        rest ^= low
    return False


def find_conflict_sets(
    fragments: CoreFragments,
    checkset: Sequence[ClassId],
    alignment: Alignment,
    *,
    max_work: int = 1_000_000,
) -> ConflictList:
    """Enumerate every minimal conflict set of the alignment, the
    fragments' own or a subset of it (other mappings raise ValueError).

    The search runs on the core graph, whose classes are the merged
    view's global ids.  Witnesses are `fragments.starts`, which hold the
    disjointness endpoints, the checkset and the divergence starts, and
    the given checkset's classes (a class outside the core raises
    ValueError).  One backward label search per endpoint finds the
    minimal label sets of the walks from each node into it; all the
    searches run in one loop, by label-set size.  A set is settled at a
    node unless a set settled there is a subset of it, or it strictly
    contains a conflict found so far.  When a witness's set for one
    member of a pair settles, its union with each settled set for the
    other member is a conflict, and each mask keeps its smallest (start
    class, pair index) witness.  A union not yet found is tested against
    the found masks only when no bit of one set forms a found
    two-mapping conflict with a bit of the other: such a conflict lies
    inside the union and is not the union itself, so the union strictly
    contains it, and the test would say so.
    The list's `work` counts the steps (see `SearchWork`), and a step
    past `max_work` raises EnumerationCapExceeded.  The scans behind
    each step, a candidate's subset test against the node's settled sets
    and its conflict test against the found masks, are not charged, so
    the cap bounds steps, not time (the `find_conflict_sets` FOUND entry
    in CHANGES.md; ROADMAP item 3(a)).
    """
    # The reverse core graph: the reduced edges carry no label, and each
    # mapping edge is labelled with the mapping's index.  Parallel edges
    # with distinct labels all matter.
    mappings = alignment.mappings
    radj, view = fragments.radj, fragments.view
    labelled: dict[int, list[tuple[int, int]]] = {g: [] for g in radj}
    for mi, m in enumerate(mappings):
        for sub, sup in view.edges_of(m):
            labelled[sup].append((sub, mi))
    pairs = view.disjoint
    if not pairs or not mappings:
        return ConflictList()

    ends = sorted({g for pair in pairs for g in pair})
    starts = set(fragments.starts).union(map(fragments._require, checkset))
    partners: dict[int, list[tuple[int, int]]] = {e: [] for e in ends}
    for pi, (a, b) in enumerate(pairs):
        partners[a].append((pi, b))
        partners[b].append((pi, a))
    name = view.names

    # settled[e][v]: the label sets of walks v -> e settled so far.  found
    # maps each conflict mask to its smallest (start, pair index) witness;
    # by_low indexes the masks by their lowest bit (see contains_conflict);
    # pair_of[i] is the OR of the bits that form a found two-mapping
    # conflict with bit i.
    settled: dict[int, dict[int, list[int]]] = {e: {} for e in ends}
    found: dict[int, tuple[int, int]] = {}
    by_low: dict[int, list[int]] = {}
    pair_of = [0] * len(mappings)

    n_settled = n_unions = n_pruned = 0
    level = [(e, e, 0) for e in ends]
    while level:
        # Edges that add no new label extend `level` as it is walked.
        bigger: list[tuple[int, int, int]] = []
        for e, v, mask in level:
            live = settled[e].setdefault(v, [])
            if any(k & mask == k for k in live) or contains_conflict(mask, by_low):
                continue
            live.append(mask)
            if v != e:
                n_settled += 1
                if n_settled + n_unions > max_work:
                    raise EnumerationCapExceeded(
                        f"label-set search into {name[e]} exhausts "
                        f"the budget of {max_work} steps"
                    )
            if v in starts:
                near = None  # pair_of over mask's bits, at the first new union
                for pi, other in partners[e]:
                    for mb in settled[other].get(v, ()):
                        n_unions += 1
                        if n_settled + n_unions > max_work:
                            a, b = pairs[pi]
                            raise EnumerationCapExceeded(
                                f"witness ({name[v]}, {name[a]}|{name[b]}) exhausts "
                                f"the budget of {max_work} steps with its path pairs"
                            )
                        union = mask | mb
                        witness = found.get(union)
                        if witness is None:
                            if near is None:
                                near = 0
                                for i in iter_bits(mask):
                                    near |= pair_of[i]
                            if near & mb or contains_conflict(union, by_low):
                                n_pruned += 1
                                continue  # never minimal
                            by_low.setdefault(union & -union, []).append(union)
                            if union.bit_count() == 2:
                                i, j = iter_bits(union)
                                pair_of[i] |= 1 << j
                                pair_of[j] |= 1 << i
                                near |= (mask >> i & 1) << j | (mask >> j & 1) << i
                        if witness is None or (v, pi) < witness:
                            found[union] = (v, pi)
            for u in radj[v]:
                level.append((e, u, mask))
            for u, label in labelled[v]:
                if mask >> label & 1:
                    level.append((e, u, mask))
                else:
                    bigger.append((e, u, mask | 1 << label))
        level = bigger

    # A dropped set strictly contains a found conflict, and so does every
    # union with it: the minimal found masks are the minimal conflicts.
    at = view.class_at
    minimal = (
        ConflictSet(
            mappings=frozenset(mappings[i] for i in iter_bits(mask)),
            witness_class=at(v),
            witness_pair=tuple(map(at, pairs[pi])),
        )
        for mask, (v, pi) in found.items()
        if not contains_conflict(mask, by_low)
    )
    return ConflictList(minimal, SearchWork(n_settled, n_unions, n_pruned))


def disjoint_conflict_clusters(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Partition conflict masks into maximal share-a-bit components, by a
    union-find over the bits.  Each cluster keeps the input order, and
    the clusters are ordered by their first mask's position."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in masks:
        bits = iter_bits(mask)
        root = find(next(bits, -1))
        for b in bits:
            other = find(b)
            if other != root:
                parent[other] = root

    groups: dict[int, list[int]] = {}
    for mask in masks:
        groups.setdefault(find((mask & -mask).bit_length() - 1), []).append(mask)
    return tuple(map(tuple, groups.values()))


def count_incoherent_classes(view: MergedGraph) -> tuple[int, tuple[ClassId, ...]]:
    """All classes entailed to sit under both members of a disjoint pair."""
    ordered = sorted(view.incoherent_ids())
    return len(ordered), tuple(map(view.class_at, ordered))


def conflict_statistics(conflicts: ConflictList) -> dict:
    """Set/cluster counts and a size histogram, for reporting."""
    clusters = disjoint_conflict_clusters(conflicts.masks)
    histogram = Counter(mask.bit_count() for mask in conflicts.masks)
    return {
        "sets": len(conflicts),
        "clusters": len(clusters),
        "set_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
