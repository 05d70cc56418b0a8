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
it builds the condensation of the view's child lists once and drops it,
and walks each of the view's ontologies on local ids, naming every core
class by its global id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from .graphs import below_both, tarjan_scc
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
    disjointness endpoints.  Builds its own condensation.
    """
    return tuple(map(view.class_at, _checkset_ids(view)))


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


def _has_two_covers(parents: list[list[int]], height: list[int], c: int) -> bool:
    """Whether component `c` has two or more covering components.

    A parent is a cover unless it lies above another parent.  Height
    grows along every upward path, so every lowest parent is a cover, and
    `c` has one cover exactly when an upward search from its one lowest
    parent, kept to the highest parent's height, reaches all the others.
    """
    if len(parents[c]) < 2:
        return False
    first, *others = sorted(parents[c], key=height.__getitem__)
    if height[others[0]] == height[first]:
        return True
    ceiling = height[others[-1]]
    targets = set(others)
    seen = {first}
    stack = [first]
    while stack:
        for g in parents[stack.pop()]:
            if height[g] <= ceiling and g not in seen:
                seen.add(g)
                if g in targets:
                    targets.discard(g)
                    if not targets:
                        return False
                stack.append(g)
    return True


def _condensation(view: MergedGraph) -> tuple[list[int], list[list[int]], list[int]]:
    """Every class's component, and every component's distinct parents
    and height, its longest path down.  Component ids put children first."""
    down = view.merged_child_lists()
    count, comp = tarjan_scc(len(down), down)
    parents: list[list[int]] = [[] for _ in range(count)]
    for v, ws in enumerate(down):
        cv = comp[v]
        for w in ws:
            cw = comp[w]
            if cw != cv:
                parents[cw].append(cv)
    parents = [list(set(ps)) if len(ps) > 1 else ps for ps in parents]
    height = [0] * count
    for c, ps in enumerate(parents):
        h = height[c] + 1
        for p in ps:
            if height[p] < h:
                height[p] = h
    return comp, parents, height


def _checkset_ids(view: MergedGraph) -> list[int]:
    """The checkset as ascending global ids."""
    comp, parents, height = _condensation(view)
    kept = set(_minimal(range(len(parents)), parents,
                        partial(_has_two_covers, parents, height)))
    return [g for g, c in enumerate(comp) if c in kept]


def _divergence_starts(view: MergedGraph) -> list[int]:
    """Conflict-search entry points beyond the checkset, as global ids.

    Any class where two upward walks can split has at least two distinct
    out-neighbors in the merged graph, its ontology parents and mapping
    heads; that property survives restriction to any mapping subset,
    unlike multi-parenthood, which mapping edges elsewhere can mask.  The
    minimal pass over each ontology's subclass edges keeps the
    ontology-minimal candidates: one below another there inherits all of
    its incoherences, so only the lower one is searched.
    """
    heads = Counter(sub for sub, _ in set(chain(*view.mapping_edges.values())))
    kept: list[int] = []
    for onto, glob in zip(view.sides, view.glob):
        is_candidate = [len(ps) + heads.get(g, 0) >= 2
                        for g, ps in zip(glob, onto.parents)]
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
    The merged graph's condensation is built here and dropped before
    the reduced edges.
    """
    if view is None:
        view = merged_view(o1, o2, alignment)
    checkset = _checkset_ids(view)
    starts = set(checkset).union(_divergence_starts(view), *view.disjoint)
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
