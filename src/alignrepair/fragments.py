"""Core-fragment extraction: the reduced structures that preserve every
disjointness-driven conflict.

The core classes are the mapping endpoints and the conflict search's
starts: the disjointness endpoints, the checkset (subsumption-minimal
multi-parent classes) and the divergence starts, both picked by one
leaves-first pass, `_minimal`.  Reduced edges compress mapping-free
paths between core classes of one side, so that for every subset M' of
the alignment they come from, and only for those, the fragment graph
plus M' infers exactly the same subsumptions between core classes as
the full merged graph plus M'.  Extraction reads only the merged view:
it builds the view's parent lists and condensation once and drops them,
and walks each of the view's ontologies on local ids, naming every core
class by its global id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import below_both, condensation_edges, tarjan_scc
from .model import (
    Alignment,
    ClassId,
    Mapping,
    MergedGraph,
    ModelError,
    Ontology,
    merged_view,
)


class ReducedEdge(NamedTuple):
    child: ClassId
    parent: ClassId


@dataclass(frozen=True)
class CoreFragments:
    """Reduced per-side hierarchies over the core classes.

    The engine fields name every class by its global id in `view`, the
    merged view they were extracted from.  `core` lists the core classes
    in ascending (name) order.  `edges` are the reduced (child, parent)
    edges, sorted; they carry no mapping edges.  `radj` maps each core
    class to its children there, the reverse reduced graph, to which
    conflict search and `fragments_incoherent` add the mappings they
    consider, each by its edges in `view`; like the view, they raise
    ValueError on a mapping outside its alignment.  `starts` is conflict
    enumeration's start set: the disjointness endpoints, `checkset` and
    the divergence starts (see `_divergence_starts`); `core` adds the
    mapping endpoints.  The ClassId views `core_classes`,
    `reduced_edges` and `start_classes` are built on each access.
    """

    core: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    starts: tuple[int, ...]
    checkset: tuple[int, ...]
    radj: dict[int, list[int]] = field(compare=False, repr=False)
    view: MergedGraph = field(compare=False, repr=False)

    @property
    def core_classes(self) -> tuple[ClassId, ...]:
        return tuple(map(self.view.class_at, self.core))

    @property
    def reduced_edges(self) -> tuple[ReducedEdge, ...]:
        at = self.view.class_at
        return tuple(ReducedEdge(at(c), at(p)) for c, p in self.edges)

    @property
    def start_classes(self) -> tuple[ClassId, ...]:
        return tuple(map(self.view.class_at, self.starts))

    def _require(self, c: ClassId) -> int:
        """Global id of a core class."""
        try:
            g = self.view.node(c)
        except ModelError:
            g = -1
        if g not in self.radj:
            raise ValueError(f"class {c.id!r} is not a core class")
        return g


def compute_checkset(view: MergedGraph) -> tuple[ClassId, ...]:
    """Subsumption-minimal multi-parent classes of the merged graph, sorted.

    A class is multi-parent when its component has at least two covering
    components; it is kept only if no class in a strictly lower component
    is itself multi-parent.  All members of a qualifying component are
    included.  Incoherence checks on these classes suffice alongside the
    disjointness endpoints.  Builds its own parent lists and condensation.
    """
    return tuple(map(view.class_at, _checkset_ids(_parent_lists(view))))


def _parent_lists(view: MergedGraph) -> list[Sequence[int]]:
    """Parent lists by global id, mapping edges included: each class's
    ontology parents and mapping heads in one sorted, distinct list."""
    heads: dict[int, set[int]] = {}
    for edges in view.mapping_edges.values():
        for sub, sup in edges:
            heads.setdefault(sub, set()).add(sup)
    adj: list[Sequence[int]] = [()] * len(view.names)
    for onto, g in zip(view.sides, view.glob):
        for gi, ps in zip(g, onto.parents):
            extra = heads.get(gi)
            if extra:
                adj[gi] = sorted(extra.union(g[p] for p in ps))
            elif ps:
                adj[gi] = [g[p] for p in ps]
    return adj


def _minimal(leaves_first: Iterable[int], parents: Sequence[Sequence[int]],
             is_candidate: Callable[[int], bool]) -> list[int]:
    """The candidates with no candidate strictly below them, in walk order.
    `leaves_first` lists each node of the acyclic `parents` after all its
    children.  A kept node, or one with a candidate below it, marks its
    parents as having one below; a marked node is not tested."""
    below = bytearray(len(parents))
    kept: list[int] = []
    for v in leaves_first:
        if not below[v]:
            if not is_candidate(v):
                continue
            kept.append(v)
        for p in parents[v]:
            below[p] = 1
    return kept


def _has_two_covers(cond_parents: list[list[int]], c: int) -> bool:
    """Whether component `c` has two or more covering components.

    A parent is a cover unless it lies above another parent.  Parents
    come before their children, so only the last (highest-id) parent
    can lie below all the others, and `c` has one cover exactly when an
    upward search from that parent reaches every other one.  The search
    skips ids below the first parent, since nothing there leads back up
    to a parent, and stops once the last other parent is reached.
    """
    ps = cond_parents[c]
    if len(ps) < 2:
        return False
    floor, last = ps[0], ps[-1]
    others = set(ps[:-1])
    seen = {last}
    stack = [last]
    while stack:
        for g in cond_parents[stack.pop()]:
            if g >= floor and g not in seen:
                seen.add(g)
                if g in others:
                    others.discard(g)
                    if not others:
                        return False
                stack.append(g)
    return True


def _checkset_ids(adj: list[Sequence[int]]) -> list[int]:
    """The checkset as ascending global ids, from the parent lists.

    Tarjan runs on the parent lists, so component ids put every parent
    before its children: each condensation parent has a smaller id than
    its component, and the lists are ascending.  The minimal pass runs
    over descending ids, so a component with one below is not searched.
    """
    count, comp = tarjan_scc(len(adj), adj)
    parents = condensation_edges(len(adj), adj, comp, count)
    kept = set(_minimal(range(count - 1, -1, -1), parents,
                        partial(_has_two_covers, parents)))
    return [g for g, c in enumerate(comp) if c in kept]


def _divergence_starts(adj: list[Sequence[int]], view: MergedGraph) -> list[int]:
    """Conflict-search entry points beyond the checkset, as global ids.

    Any class where two upward walks can split has at least two distinct
    out-neighbors in the merged graph; that property survives restriction
    to any mapping subset, unlike multi-parenthood, which mapping edges
    elsewhere can mask.  The minimal pass over each ontology's subclass
    edges keeps the ontology-minimal candidates: one below another there
    inherits all of its incoherences, so only the lower one is searched.
    """
    kept: list[int] = []
    for onto, glob in zip(view.sides, view.glob):
        is_candidate = [len(adj[g]) >= 2 for g in glob]
        minimal = _minimal(reversed(onto.order), onto.parents, is_candidate.__getitem__)
        kept.extend(glob[v] for v in minimal)
    return kept


def _reduced_edges_for_side(
    onto: Ontology, glob: list[int], core: set[int]
) -> list[tuple[int, int]]:
    """Covering relation of ontology-only reachability restricted to core,
    as (child, parent) global ids; `glob` maps the side's local ids to
    global ids, and `core` holds the global ids of the core classes.

    One roots-first pass gives every class its nearest core ancestors:
    the candidates are its core parents plus the nearest core ancestors
    of its other parents, minus any candidate that is a strict ancestor
    of another.  A core class's nearest core ancestors are its covers.

    The strict-ancestor test uses bitmasks with one bit per core class
    of the side, numbered as the pass reaches it; parents come first, so
    `p in bit` means p is core.  A core class's strict core ancestors
    are its covers plus their own, known once the pass gets to it.
    """
    bit: dict[int, int] = {}
    parents = onto.parents
    above: list[int] = []  # strict core ancestors, by bit

    nearest: list[tuple[int, ...]] = [()] * len(onto)
    edges: list[tuple[int, int]] = []
    for v in onto.order:
        candidates: set[int] = set()
        for p in parents[v]:
            if p in bit:
                candidates.add(p)
            else:
                candidates.update(nearest[p])
        # One parent's contribution is already an antichain.
        if len(parents[v]) > 1 and len(candidates) > 1:
            blocked = 0
            for c in candidates:
                blocked |= above[bit[c]]
            candidates = {c for c in candidates if not (blocked >> bit[c]) & 1}
        nearest[v] = tuple(candidates)
        g = glob[v]
        if g in core:
            mask = 0
            for j in candidates:
                mask |= above[bit[j]] | (1 << bit[j])
            bit[v] = len(above)
            above.append(mask)
            edges.extend((g, glob[j]) for j in candidates)
    return edges


def extract_core_fragments(
    o1: Ontology,
    o2: Ontology,
    alignment: Alignment,
    *,
    view: MergedGraph | None = None,
) -> CoreFragments:
    """Extract the core classes and their reduced subclass structure.

    `o1`, `o2` and `alignment` are read only to build a merged view when
    none is passed; pass a prebuilt one to avoid building it again.
    The merged graph's parent lists and condensation are built here and
    dropped before the reduced edges.
    """
    if view is None:
        view = merged_view(o1, o2, alignment)
    adj = _parent_lists(view)
    checkset = _checkset_ids(adj)
    starts = set(checkset).union(_divergence_starts(adj, view), *view.disjoint)
    del adj
    # The ends of the mapping edges are exactly the mapping endpoints.
    core = starts.union(*(e for edges in view.mapping_edges.values() for e in edges))
    core_ids = sorted(core)

    edges = sorted(
        e
        for onto, glob in zip(view.sides, view.glob)
        for e in _reduced_edges_for_side(onto, glob, core)
    )
    radj: dict[int, list[int]] = {g: [] for g in core_ids}
    for child, parent in edges:
        radj[parent].append(child)

    return CoreFragments(
        core=tuple(core_ids),
        edges=tuple(edges),
        starts=tuple(sorted(starts)),
        checkset=tuple(checkset),
        radj=radj,
        view=view,
    )


def fragments_incoherent(fragments: CoreFragments, subset: Iterable[Mapping]) -> bool:
    """True iff some core class lands under both members of a disjoint pair
    when the subset's mapping edges are added to the reduced structure.
    Like the core graph, the search names classes by their global ids.
    A mapping the fragments were not extracted for raises ValueError."""
    extra = fragments.view.child_lists(subset)
    return any(below_both(fragments.radj, fragments.view.disjoint, extra))
