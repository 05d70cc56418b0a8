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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .fragments import CoreFragments, FragmentError
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

    def __contains__(self, m: Mapping) -> bool:
        return m in self.mappings

    def sorted_mappings(self) -> tuple[Mapping, ...]:
        return tuple(sorted(self.mappings, key=lambda m: m.key))

    def __repr__(self) -> str:
        members = ", ".join(m.describe() for m in self.sorted_mappings())
        return f"ConflictSet({{{members}}} @ {self.witness_class.id})"


class ConflictList:
    """Deduplicated, canonically ordered antichain of conflict sets.

    The input must already be an antichain: no set strictly contains
    another.  `find_conflict_sets` yields only minimal sets, and
    `filter_conflicts` keeps a subfamily of an antichain, so both
    guarantee it.  Of sets with equal mappings, the one with the
    smallest witness is kept; the sets are ordered by key.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: Iterable[ConflictSet] = ()):
        by_key: dict[tuple, ConflictSet] = {}
        for s in sorted(
            sets, key=lambda s: (s.key, s.witness_class, s.witness_pair)
        ):
            by_key.setdefault(s.key, s)
        self.sets: tuple[ConflictSet, ...] = tuple(by_key.values())

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
    """Enumerate every minimal conflict set of the alignment.

    The search runs on the core graph, whose classes are the merged
    view's global ids.  Witnesses are the fragment start classes, which
    contain `fragments.checkset`, the classes of the given checkset, and
    the disjointness endpoints.  One backward label search per endpoint
    finds the minimal label sets of the walks from each node into it;
    all the searches run in one loop, by label-set size.  A set is
    settled at a node unless a set settled there is a subset of it, or
    it strictly contains a conflict found so far.  When a witness's set
    for one member of a pair settles, its union with each settled set
    for the other member is a conflict, and each mask keeps its smallest
    (start class, pair index) witness.  `max_work` caps the total work
    of the call: every settled label set (an endpoint's own empty set
    aside) and every union spend one step of one shared budget;
    exhausting it raises EnumerationCapExceeded.
    """
    pairs = fragments.ids.disjoint
    if not pairs or not len(alignment):
        return ConflictList()

    mappings = alignment.mappings

    # The reverse core graph: the reduced edges carry no label, and each
    # mapping edge is labelled with the mapping's index.  Parallel edges
    # with distinct labels all matter.
    radj = fragments.radj
    labelled: dict[int, list[tuple[int, int]]] = {g: [] for g in radj}
    for mi, m in enumerate(mappings):
        try:
            edges = fragments.subset_edges((m,))
        except FragmentError:
            raise ValueError(
                f"alignment mapping {m.describe()!r} has a non-core endpoint; "
                "fragments were extracted from a different alignment"
            ) from None
        for sub, sup in edges:
            labelled[sup].append((sub, mi))

    ends = sorted({g for pair in pairs for g in pair})
    starts = set(fragments.starts).union(ends)
    starts.update(map(fragments._require, checkset))
    partners: dict[int, list[tuple[int, int]]] = {e: [] for e in ends}
    for pi, (a, b) in enumerate(pairs):
        partners[a].append((pi, b))
        partners[b].append((pi, a))
    name = fragments.ids.names

    # settled[e][v]: the label sets of walks v -> e settled so far.  found
    # maps each conflict mask to its smallest (start, pair index) witness;
    # by_low indexes the masks by their lowest bit (see contains_conflict).
    settled: dict[int, dict[int, list[int]]] = {e: {} for e in ends}
    found: dict[int, tuple[int, int]] = {}
    by_low: dict[int, list[int]] = {}

    budget = max_work
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
                budget -= 1
                if budget < 0:
                    raise EnumerationCapExceeded(
                        f"label-set search into {name[e]} exhausts "
                        f"the budget of {max_work} steps"
                    )
            if v in starts:
                for pi, other in partners[e]:
                    for mb in settled[other].get(v, ()):
                        budget -= 1
                        if budget < 0:
                            a, b = pairs[pi]
                            raise EnumerationCapExceeded(
                                f"witness ({name[v]}, {name[a]}|{name[b]}) exhausts "
                                f"the budget of {max_work} steps with its path pairs"
                            )
                        union = mask | mb
                        witness = found.get(union)
                        if witness is None:
                            if contains_conflict(union, by_low):
                                continue  # never minimal
                            by_low.setdefault(union & -union, []).append(union)
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
    at = fragments.ids.class_at
    return ConflictList(
        ConflictSet(
            mappings=frozenset(mappings[i] for i in iter_bits(mask)),
            witness_class=at(v),
            witness_pair=tuple(map(at, pairs[pi])),
        )
        for mask, (v, pi) in found.items()
        if not contains_conflict(mask, by_low)
    )


def disjoint_conflict_clusters(
    conflicts: Sequence[ConflictSet],
) -> tuple[tuple[ConflictSet, ...], ...]:
    """Partition conflict sets into maximal share-a-mapping components,
    each ordered by key, ordered by their first key."""
    sets = list(conflicts)
    if not sets:
        return ()
    parent = list(range(len(sets)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    owner: dict[tuple, int] = {}
    for i, s in enumerate(sets):
        for m in s.mappings:
            if m.key in owner:
                union(owner[m.key], i)
            else:
                owner[m.key] = i

    groups: dict[int, list[ConflictSet]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), []).append(s)
    clusters = [tuple(sorted(g, key=lambda s: s.key)) for g in groups.values()]
    clusters.sort(key=lambda c: c[0].key)
    return tuple(clusters)


def count_incoherent_classes(view: MergedGraph) -> tuple[int, tuple[ClassId, ...]]:
    """All classes entailed to sit under both members of a disjoint pair."""
    ordered = sorted(view.incoherent_ids())
    return len(ordered), tuple(map(view.ids.class_at, ordered))


def conflict_statistics(conflicts: ConflictList) -> dict:
    """Set/cluster counts and a size histogram, for reporting."""
    clusters = disjoint_conflict_clusters(conflicts.sets)
    histogram = Counter(len(s) for s in conflicts)
    return {
        "sets": len(conflicts),
        "clusters": len(clusters),
        "set_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
