"""Minimal conflict-set enumeration over core fragments.

A conflict set is a minimal set of mappings whose edges, added to the
reduced fragment structure, place some class under both members of a
disjoint pair.  Enumeration keeps, per node, the antichain of minimal
mapping-label sets of walks into each disjointness endpoint (a Pareto
search: a walk whose label set contains another walk's label set can
never yield a new minimal conflict); a witness's conflicts are unions
of one label set per pair member.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .fragments import CoreFragments
from .graphs import iter_bits
from .model import Alignment, ClassId, Mapping, MergedGraph


class EnumerationCapExceeded(RuntimeError):
    """Raised when conflict enumeration exceeds its work budget instead of
    silently truncating (truncation would break completeness)."""


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

    Of sets with equal mappings, the one with the smallest witness is
    kept.  The rest are visited by ascending size, and a set is dropped
    when a set kept before it is a strict subset; such a subset shares a
    mapping with it, so only the kept sets holding one of its mappings
    are compared.  An empty set is a subset of every other one.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: Iterable[ConflictSet] = ()):
        by_key: dict[tuple, ConflictSet] = {}
        for s in sorted(
            sets, key=lambda s: (s.key, s.witness_class, s.witness_pair)
        ):
            by_key.setdefault(s.key, s)
        kept: list[ConflictSet] = []
        holders: dict[tuple, list[ConflictSet]] = {}
        for s in sorted(by_key.values(), key=len):
            if (kept and not kept[0].mappings) or any(
                other.mappings < s.mappings
                for m in s.mappings
                for other in holders.get(m.key, ())
            ):
                continue
            kept.append(s)
            for m in s.mappings:
                holders.setdefault(m.key, []).append(s)
        kept.sort(key=lambda s: s.key)
        self.sets: tuple[ConflictSet, ...] = tuple(kept)

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

    def all_mappings(self) -> tuple[Mapping, ...]:
        seen: dict[tuple, Mapping] = {}
        for s in self.sets:
            for m in s.mappings:
                seen.setdefault(m.key, m)
        return tuple(seen[k] for k in sorted(seen))


@dataclass(frozen=True)
class Cluster:
    """A maximal group of conflict sets connected by shared mappings."""

    sets: tuple[ConflictSet, ...]

    @property
    def key(self) -> tuple:
        return self.sets[0].key if self.sets else ()

    def __iter__(self) -> Iterator[ConflictSet]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def _insert_minimal(masks: list[int], new: int) -> bool:
    """Insert into an antichain of bitmasks; drop dominated entries.

    Returns False when an existing mask is a subset of `new`.
    """
    for m in masks:
        if m & new == m:  # m subset of new: new is dominated
            return False
    masks[:] = [m for m in masks if new & m != new]
    masks.append(new)
    return True


def find_conflict_sets(
    fragments: CoreFragments,
    checkset: Sequence[ClassId],
    alignment: Alignment,
    *,
    max_work: int = 1_000_000,
) -> ConflictList:
    """Enumerate every minimal conflict set of the alignment.

    Witnesses are the fragment start classes, which contain
    `fragments.checkset`, the classes of the given checkset, and the
    disjointness endpoints.  One backward label search per endpoint
    yields the minimal label sets from every node to that endpoint; a
    witness's conflict candidates are then unions over its entries for
    the two members of a pair, so only nodes in both endpoints' label
    maps are tried.  `max_work` caps the total work of the call: every
    label set the searches insert and every path pair a witness combines
    spend one step of one shared budget; exhausting it raises
    EnumerationCapExceeded.
    """
    if not fragments.pairs or not len(alignment):
        return ConflictList()

    mappings = sorted(alignment, key=lambda m: m.key)

    # Reverse labeled graph on core ranks: reduced edges carry no label
    # (-1), mapping edges the mapping's index.  Parallel edges with
    # distinct labels all matter.
    radj: list[list[tuple[int, int]]] = [[] for _ in fragments.core]
    for child, parent, _ in fragments.edges:
        radj[parent].append((child, -1))
    for mi, m in enumerate(mappings):
        if m.source not in fragments or m.target not in fragments:
            raise ValueError(
                f"alignment mapping {m.describe()!r} has a non-core endpoint; "
                "fragments were extracted from a different alignment"
            )
        for sub, sup in m.edges():
            radj[fragments.rank(sup)].append((fragments.rank(sub), mi))

    # states_to[e][v] = antichain of minimal label sets of walks v -> e
    budget = max_work
    states_to: dict[int, dict[int, list[int]]] = {}
    for e in sorted({r for pair in fragments.pairs for r in pair}):
        states_to[e], budget = _pareto_label_search(radj, e, budget)

    starts = set(fragments.starts).union(r for pair in fragments.pairs for r in pair)
    starts.update(map(fragments._require, checkset))
    # Witnesses in (start, pair) order, so each mask keeps the first, and
    # smallest, witness that yields it.
    witnesses = sorted(
        (s, pi, a, b)
        for pi, (a, b) in enumerate(fragments.pairs)
        for s in starts.intersection(states_to[a].keys() & states_to[b].keys())
    )
    name, core = fragments.ids.names, fragments.core
    found: dict[int, tuple[int, int, int]] = {}
    for s, _, a, b in witnesses:
        sets_a = states_to[a][s]
        sets_b = states_to[b][s]
        budget -= len(sets_a) * len(sets_b)
        if budget < 0:
            raise EnumerationCapExceeded(
                f"witness ({name[core[s]]}, {name[core[a]]}|{name[core[b]]}) "
                f"exhausts the budget of {max_work} steps with its path pairs"
            )
        witness_masks: list[int] = []
        for ma in sets_a:
            for mb in sets_b:
                _insert_minimal(witness_masks, ma | mb)
        for mask in witness_masks:
            if mask and mask not in found:
                found[mask] = (s, a, b)

    # Only minimal masks become ConflictSets.  Visited by popcount, a mask
    # is dropped when a kept mask is a subset of it; such a mask shares a
    # bit with it, so only the kept masks holding one of its bits are
    # compared.  The first witness recorded per mask is its smallest one,
    # the one ConflictList would keep.
    minimal: list[int] = []
    holders: dict[int, list[int]] = {}
    for mask in sorted(found, key=int.bit_count):
        bits = list(iter_bits(mask))
        if any(k & mask == k for i in bits for k in holders.get(i, ())):
            continue
        minimal.append(mask)
        for i in bits:
            holders.setdefault(i, []).append(mask)
    at = fragments.ids.class_at
    return ConflictList(
        ConflictSet(
            mappings=frozenset(mappings[i] for i in iter_bits(mask)),
            witness_class=at(core[found[mask][0]]),
            witness_pair=(at(core[found[mask][1]]), at(core[found[mask][2]])),
        )
        for mask in minimal
    )


def _pareto_label_search(
    adj: list[list[tuple[int, int]]],
    start: int,
    budget: int,
) -> tuple[dict[int, list[int]], int]:
    """Minimal mapping-label sets of walks from `start` to every node,
    and the budget left after one step per inserted label set.

    states[v] is an antichain of bitmasks; each mask is the label set of
    some walk start->v, and every minimal label set appears.
    """
    given = budget
    states: dict[int, list[int]] = {start: [0]}
    queue: deque[tuple[int, int]] = deque([(start, 0)])
    while queue:
        u, mask = queue.popleft()
        live = states.get(u)
        if live is None or mask not in live:
            continue  # superseded by a smaller label set
        for v, label in adj[u]:
            nm = mask | (1 << label) if label >= 0 else mask
            lst = states.setdefault(v, [])
            if _insert_minimal(lst, nm):
                budget -= 1
                if budget < 0:
                    raise EnumerationCapExceeded(
                        f"label-set search from node {start} exceeds the "
                        f"{given} steps left of the work budget"
                    )
                queue.append((v, nm))
    return states, budget


def disjoint_conflict_clusters(conflicts: Sequence[ConflictSet]) -> tuple[Cluster, ...]:
    """Partition conflict sets into maximal share-a-mapping components."""
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
    clusters = [
        Cluster(tuple(sorted(g, key=lambda s: s.key))) for g in groups.values()
    ]
    clusters.sort(key=lambda c: c.key)
    return tuple(clusters)


def count_incoherent_classes(view: MergedGraph) -> tuple[int, tuple[ClassId, ...]]:
    """All classes entailed to sit under both members of a disjoint pair."""
    bad: set[int] = set()
    for a, b in view.ids.disjoint:
        bad |= view.nodes_below(a) & view.nodes_below(b)
    ordered = sorted(bad)
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
