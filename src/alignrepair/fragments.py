"""Core-fragment extraction: the reduced structures that preserve every
disjointness-driven conflict.

The core classes are the disjointness endpoints, the mapping endpoints,
the checkset (subsumption-minimal multi-parent classes), and the conflict
search entry points.  Reduced edges compress mapping-free paths between
core classes of one side, so that for every alignment subset M' the
fragment graph plus M' infers exactly the same subsumptions between core
classes as the full merged graph plus M'.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .model import (
    Alignment,
    ClassId,
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

    `reduced_edges` carry no mapping edges; conflict search re-adds the
    edges of each candidate mapping subset.  `start_classes` are the
    entry points for conflict enumeration (checkset plus divergence
    classes; see extract_core_fragments), so `checkset` is a subset of
    them.
    """

    core_classes: tuple[ClassId, ...]
    reduced_edges: tuple[ReducedEdge, ...]
    disjoint_pairs: tuple[tuple[ClassId, ClassId], ...]
    start_classes: tuple[ClassId, ...]
    checkset: tuple[ClassId, ...]

    @property
    def edge_provenance(self) -> dict[tuple[ClassId, ClassId], bool]:
        """(child, parent) -> whether the edge abbreviates a longer path."""
        return {(e.child, e.parent): e.via_path for e in self.reduced_edges}

    def __contains__(self, c: ClassId) -> bool:
        return c in self._node_index

    @cached_property
    def _node_index(self) -> dict[ClassId, int]:
        return {c: i for i, c in enumerate(self.core_classes)}

    @cached_property
    def _ontology_radj(self) -> list[list[int]]:
        idx = self._node_index
        radj: list[list[int]] = [[] for _ in self.core_classes]
        for e in self.reduced_edges:
            radj[idx[e.parent]].append(idx[e.child])
        return radj

    def _require(self, c: ClassId) -> int:
        i = self._node_index.get(c)
        if i is None:
            raise FragmentError(f"class {c.id!r} is not a core class")
        return i

    def subset_edges(self, subset: Iterable[Mapping]) -> list[tuple[int, int]]:
        """Directed node-index edges contributed by a mapping subset."""
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

    Component ids put every parent before its children, so one pass over
    descending ids passes "a multi-parent component lies below" from
    each component to its parents after all its children are done.
    """
    parents = view.component_parents()
    multi_below = bytearray(len(parents))
    kept: list[int] = []
    for c in range(len(parents) - 1, -1, -1):
        ps = parents[c]
        multi = len(ps) >= 2 and len(view.component_covers(c)) >= 2
        if multi or multi_below[c]:
            if not multi_below[c]:
                kept.append(c)
            for p in ps:
                multi_below[p] = 1
    return tuple(sorted(cid for c in kept for cid in view.component_members(c)))


def _divergence_starts(view: MergedGraph, o1: Ontology, o2: Ontology) -> list[ClassId]:
    """Conflict-search entry points beyond the checkset.

    Any class where two upward walks can split has at least two distinct
    out-neighbors in the merged graph; that property survives restriction
    to any mapping subset, unlike multi-parenthood, which mapping edges
    elsewhere can mask.  Candidates are pruned to the ontology-minimal
    ones: a candidate below another via pure subclass edges inherits all
    of its incoherences, so only the lower one needs to be searched.
    One leaves-first pass per ontology marks every class with a
    candidate strictly below it.
    """
    candidates = [c for c in view.classes if len(view.out_neighbors(c)) >= 2]
    kept: list[ClassId] = []
    for onto in (o1, o2):
        side_cands = [c for c in candidates if c.side == onto.side]
        is_candidate = bytearray(len(onto))
        for c in side_cands:
            is_candidate[onto.local_index(c.id)] = 1
        below = bytearray(len(onto))
        parents = onto.local_parents()
        for v in reversed(onto.roots_first_order()):
            if is_candidate[v] or below[v]:
                for p in parents[v]:
                    below[p] = 1
        kept.extend(c for c in side_cands if not below[onto.local_index(c.id)])
    return kept


def _reduced_edges_for_side(
    onto: Ontology, core_side: list[ClassId]
) -> list[ReducedEdge]:
    """Covering relation of ontology-only reachability restricted to core.

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
    rank = {onto.local_index(c.id): r for r, c in enumerate(core_side)}
    parents = onto.local_parents()
    above = [0] * len(core_side)  # strict core ancestors, by core rank

    nearest: list[tuple[int, ...]] = [()] * len(onto)
    edges: list[ReducedEdge] = []
    for v in onto.roots_first_order():
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
            child = core_side[r]
            edges.extend(
                ReducedEdge(child, onto.classes[j], j not in parents[v])
                for j in candidates
            )
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
    checkset = compute_checkset(view)
    starts = sorted(set(checkset) | set(_divergence_starts(view, o1, o2)))

    core: set[ClassId] = set(starts)
    for a, b in view.disjoint_pairs:
        core.add(a)
        core.add(b)
    for m in alignment:
        core.add(m.source)
        core.add(m.target)

    core_sorted = sorted(core)
    edges: list[ReducedEdge] = []
    for onto in (o1, o2):
        side_core = [c for c in core_sorted if c.side == onto.side]
        edges.extend(_reduced_edges_for_side(onto, side_core))
    edges.sort(key=lambda e: (e.child, e.parent))

    return CoreFragments(
        core_classes=tuple(core_sorted),
        reduced_edges=tuple(edges),
        disjoint_pairs=view.disjoint_pairs,
        start_classes=tuple(starts),
        checkset=checkset,
    )


def fragments_incoherent(
    fragments: CoreFragments, subset: Iterable[Mapping]
) -> bool:
    """True iff some core class lands under both members of a disjoint pair
    when the subset's mapping edges are added to the reduced structure."""
    if not fragments.disjoint_pairs:
        return False
    extra_down: dict[int, list[int]] = {}
    for u, v in fragments.subset_edges(subset):
        extra_down.setdefault(v, []).append(u)
    radj = fragments._ontology_radj
    idx = fragments._node_index

    def descendants(start: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in radj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
            for v in extra_down.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    for a, b in fragments.disjoint_pairs:
        if descendants(idx[a]) & descendants(idx[b]):
            return True
    return False
