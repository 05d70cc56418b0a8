"""Core-fragment extraction: the reduced structures that preserve every
disjointness-driven conflict.

The core classes are the disjointness endpoints, the mapping endpoints,
the checkset (subsumption-minimal multi-parent classes), and the conflict
search entry points.  Reduced edges compress mapping-free paths between
core classes of one side, so that for every alignment subset M' the
fragment graph plus M' infers exactly the same subsumptions between core
classes as the full merged graph plus M'.  Extraction runs on the merged
view's global ids and the ontologies' local ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .graphs import reachable
from .model import (
    Alignment,
    ClassId,
    GlobalIds,
    Mapping,
    MergedGraph,
    ModelError,
    Ontology,
    merged_view,
)


class FragmentError(ModelError):
    pass


class ReducedEdge(NamedTuple):
    child: ClassId
    parent: ClassId
    via_path: bool  # True when the edge abbreviates a multi-edge path


@dataclass(frozen=True)
class CoreFragments:
    """Reduced per-side hierarchies over the core classes.

    The engine fields hold ints.  `core` lists the core classes' global
    ids in ascending (name) order, and `ranks` maps each one to its
    position there; the other fields name a core class by that rank,
    which `rank` looks up.  `edges` are (child, parent, via_path) and
    carry no mapping edges; `radj` is their reverse graph, to which
    conflict search and `fragments_incoherent` add the `subset_edges`
    of the mappings they consider.  `starts` are
    the entry points for conflict enumeration (checkset plus divergence
    classes; see extract_core_fragments), so they contain
    `checkset_ranks`.  The reverse graph and the ClassId views of these
    fields are built on first use.
    """

    ids: GlobalIds
    core: tuple[int, ...]
    ranks: dict[int, int] = field(compare=False, repr=False)
    edges: tuple[tuple[int, int, bool], ...]
    pairs: tuple[tuple[int, int], ...]
    starts: tuple[int, ...]
    checkset_ranks: tuple[int, ...]

    @cached_property
    def core_classes(self) -> tuple[ClassId, ...]:
        return tuple(map(self.ids.class_at, self.core))

    @cached_property
    def reduced_edges(self) -> tuple[ReducedEdge, ...]:
        cls = self.core_classes
        return tuple(ReducedEdge(cls[c], cls[p], via) for c, p, via in self.edges)

    @cached_property
    def disjoint_pairs(self) -> tuple[tuple[ClassId, ClassId], ...]:
        cls = self.core_classes
        return tuple((cls[a], cls[b]) for a, b in self.pairs)

    @cached_property
    def start_classes(self) -> tuple[ClassId, ...]:
        return tuple(self.core_classes[r] for r in self.starts)

    @cached_property
    def checkset(self) -> tuple[ClassId, ...]:
        return tuple(self.core_classes[r] for r in self.checkset_ranks)

    def rank(self, c: ClassId) -> int | None:
        """Position of a class in `core`, or None for a non-core class."""
        try:
            return self.ranks.get(self.ids.node(c))
        except ModelError:
            return None

    @cached_property
    def radj(self) -> list[list[int]]:
        """Reverse reduced graph: the children of each core rank."""
        radj: list[list[int]] = [[] for _ in self.core]
        for child, parent, _ in self.edges:
            radj[parent].append(child)
        return radj

    def _require(self, c: ClassId) -> int:
        r = self.rank(c)
        if r is None:
            raise FragmentError(f"class {c.id!r} is not a core class")
        return r

    def subset_edges(self, subset: Iterable[Mapping]) -> list[tuple[int, int]]:
        """Directed core-rank edges contributed by a mapping subset."""
        return [
            (self._require(sub), self._require(sup))
            for m in subset
            for sub, sup in m.edges()
        ]


def compute_checkset(view: MergedGraph) -> tuple[ClassId, ...]:
    """Subsumption-minimal multi-parent classes of the merged graph, sorted.

    A class is multi-parent when its component has at least two covering
    components; it is kept only if no class in a strictly lower component
    is itself multi-parent.  All members of a qualifying component are
    included.  Incoherence checks on these classes suffice alongside the
    disjointness endpoints.
    """
    return tuple(map(view.ids.class_at, _checkset_ids(view)))


def _checkset_ids(view: MergedGraph) -> list[int]:
    """The checkset as ascending global ids.

    Component ids put every parent before its children, so one pass over
    descending ids passes "a multi-parent component lies below" from
    each component to its parents after all its children are done.
    """
    parents = view.component_parents()
    multi_below = bytearray(len(parents))
    kept: set[int] = set()
    for c in range(len(parents) - 1, -1, -1):
        ps = parents[c]
        multi = len(ps) >= 2 and len(view.component_covers(c)) >= 2
        if multi or multi_below[c]:
            if not multi_below[c]:
                kept.add(c)
            for p in ps:
                multi_below[p] = 1
    return view.members_of(kept)


def _divergence_starts(view: MergedGraph, o1: Ontology, o2: Ontology) -> list[int]:
    """Conflict-search entry points beyond the checkset, as global ids.

    Any class where two upward walks can split has at least two distinct
    out-neighbors in the merged graph; that property survives restriction
    to any mapping subset, unlike multi-parenthood, which mapping edges
    elsewhere can mask.  Candidates are pruned to the ontology-minimal
    ones: a candidate below another via pure subclass edges inherits all
    of its incoherences, so only the lower one needs to be searched.
    One leaves-first pass per ontology marks every class with a
    candidate strictly below it.
    """
    kept: list[int] = []
    for onto, glob in zip((o1, o2), view.ids.glob):
        is_candidate = [len(view.adj[g]) >= 2 for g in glob]
        below = bytearray(len(onto))
        for v in reversed(onto.order):
            if is_candidate[v] or below[v]:
                for p in onto.parents[v]:
                    below[p] = 1
        kept.extend(g for g, c, b in zip(glob, is_candidate, below) if c and not b)
    return kept


def _reduced_edges_for_side(
    onto: Ontology, core_side: list[int]
) -> list[tuple[int, int, bool]]:
    """Covering relation of ontology-only reachability restricted to core,
    as (child, parent, via_path) over the ascending local ids `core_side`.

    One roots-first pass gives every class its nearest core ancestors:
    the candidates are its core parents plus the nearest core ancestors
    of its other parents, minus any candidate that is a strict ancestor
    of another.  A core class's nearest core ancestors are its covers.

    The strict-ancestor test uses bitmasks over core rank only: a core
    class's strict core ancestors are its covers plus their own strict
    core ancestors, known once the pass reaches it.
    """
    if not core_side:
        return []
    rank = {v: r for r, v in enumerate(core_side)}
    parents = onto.parents
    above = [0] * len(core_side)  # strict core ancestors, by core rank

    nearest: list[tuple[int, ...]] = [()] * len(onto)
    edges: list[tuple[int, int, bool]] = []
    for v in onto.order:
        candidates: set[int] = set()
        for p in parents[v]:
            if p in rank:
                candidates.add(p)
            else:
                candidates.update(nearest[p])
        # One parent's contribution is already an antichain.
        if len(parents[v]) > 1 and len(candidates) > 1:
            blocked = 0
            for c in candidates:
                blocked |= above[rank[c]]
            candidates = {c for c in candidates if not (blocked >> rank[c]) & 1}
        nearest[v] = tuple(candidates)
        r = rank.get(v)
        if r is not None:
            mask = 0
            for j in candidates:
                mask |= above[rank[j]] | (1 << rank[j])
            above[r] = mask
            edges.extend((v, j, j not in parents[v]) for j in candidates)
    return edges


def extract_core_fragments(
    o1: Ontology,
    o2: Ontology,
    alignment: Alignment,
    *,
    view: MergedGraph | None = None,
) -> CoreFragments:
    """Extract the core classes and their reduced subclass structure.

    Pass a prebuilt merged view to avoid recomputing the condensation.
    """
    if view is None:
        view = merged_view(o1, o2, alignment)
    ids = view.ids
    checkset = _checkset_ids(view)
    starts = set(checkset).union(_divergence_starts(view, o1, o2))

    core = starts.union(g for pair in ids.disjoint for g in pair)
    core.update(ids.node(c) for m in alignment for c in (m.source, m.target))
    core_ids = sorted(core)
    rank = {g: r for r, g in enumerate(core_ids)}

    by_side: tuple[list[int], list[int]] = ([], [])
    for g in core_ids:
        side, local = ids.locate(g)
        by_side[side - 1].append(local)
    edges = [
        (rank[glob[c]], rank[glob[p]], via)
        for onto, side_core, glob in zip((o1, o2), by_side, ids.glob)
        for c, p, via in _reduced_edges_for_side(onto, side_core)
    ]
    edges.sort()

    return CoreFragments(
        ids=ids,
        core=tuple(core_ids),
        ranks=rank,
        edges=tuple(edges),
        pairs=tuple((rank[a], rank[b]) for a, b in ids.disjoint),
        starts=tuple(sorted(rank[g] for g in starts)),
        checkset_ranks=tuple(rank[g] for g in checkset),
    )


def fragments_incoherent(
    fragments: CoreFragments, subset: Iterable[Mapping]
) -> bool:
    """True iff some core class lands under both members of a disjoint pair
    when the subset's mapping edges are added to the reduced structure."""
    if not fragments.pairs:
        return False
    extra_down: dict[int, list[int]] = {}
    for u, v in fragments.subset_edges(subset):
        extra_down.setdefault(v, []).append(u)
    radj = fragments.radj
    return any(
        reachable(radj, a, extra_down) & reachable(radj, b, extra_down)
        for a, b in fragments.pairs
    )
