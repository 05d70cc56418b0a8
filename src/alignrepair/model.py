"""Ontologies, alignments, and the merged subsumption graph.

The merged graph combines the subclass edges of two ontologies with the
directed edges contributed by an alignment.  Equivalence mappings create
cycles, so subsumption queries run on the SCC condensation.  Neither an
ontology nor the merged graph stores an all-pairs closure: both keep
parent lists, and queries search upward from them.

All types are immutable once built; any number of threads may query a
MergedGraph concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .graphs import (
    condensation_edges,
    dag_order_roots_first,
    reaches_upward,
    tarjan_scc,
)


class ModelError(ValueError):
    """Invalid ontology or alignment input."""


class OntologyError(ModelError):
    pass


class AlignmentError(ModelError):
    pass


@dataclass(frozen=True, order=True, slots=True)
class ClassId:
    """A named class, tagged with the ontology side (1 or 2) it belongs to."""

    id: str
    side: int


class Relation(str, Enum):
    """Kind of correspondence a mapping asserts between source and target."""

    EQUIVALENCE = "="
    SUBSUMED_BY = "<"  # source is a subclass of target
    SUBSUMES = ">"  # source is a superclass of target


@dataclass(frozen=True, slots=True)
class Mapping:
    """A weighted correspondence from a side-1 class to a side-2 class.

    Equality and hashing ignore the confidence: the canonical identity of
    a mapping is (source, target, relation).  `key` spells that identity
    out as strings, for deterministic ordering; it is computed once.
    """

    source: ClassId
    target: ClassId
    relation: Relation
    confidence: float = field(default=1.0, compare=False)
    key: tuple[str, str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source.side != 1 or self.target.side != 2:
            raise AlignmentError(
                f"mapping must go from side 1 to side 2, got "
                f"{self.source.id} (side {self.source.side}) -> "
                f"{self.target.id} (side {self.target.side})"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise AlignmentError(
                f"confidence {self.confidence!r} outside [0, 1] for "
                f"{self.source.id} {self.relation.value} {self.target.id}"
            )
        object.__setattr__(
            self, "key", (self.source.id, self.target.id, self.relation.value)
        )

    def describe(self) -> str:
        return f"{self.source.id} {self.relation.value} {self.target.id}"

    def edges(self) -> tuple[tuple[ClassId, ClassId], ...]:
        """The (subclass, superclass) edges the mapping adds to a merged
        graph: two for an equivalence, one for a subsumption."""
        forward = (self.source, self.target)
        backward = (self.target, self.source)
        if self.relation is Relation.SUBSUMED_BY:
            return (forward,)
        if self.relation is Relation.SUBSUMES:
            return (backward,)
        return (forward, backward)


class Alignment:
    """An immutable set of mappings with canonical iteration order."""

    __slots__ = ("_mappings", "_keys")

    def __init__(self, mappings: Iterable[Mapping] = ()):
        ordered = sorted(mappings, key=lambda m: m.key)
        for a, b in zip(ordered, ordered[1:]):
            if a.key == b.key:
                raise AlignmentError(f"duplicate mapping {a.describe()!r}")
        self._mappings: tuple[Mapping, ...] = tuple(ordered)
        self._keys = frozenset(m.key for m in ordered)

    @property
    def mappings(self) -> tuple[Mapping, ...]:
        return self._mappings

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def __len__(self) -> int:
        return len(self._mappings)

    def __contains__(self, m: Mapping) -> bool:
        return m.key in self._keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alignment):
            return NotImplemented
        return self._mappings == other._mappings

    def __hash__(self) -> int:
        return hash(self._mappings)

    def __repr__(self) -> str:
        return f"Alignment({len(self._mappings)} mappings)"


class Ontology:
    """One side's class hierarchy plus disjointness axioms.

    Construct via :func:`build_ontology`, which validates that the input
    is acyclic and coherent on its own.  Internal indices give constant
    time class lookups; reachability searches the parent lists upward.
    """

    __slots__ = (
        "side",
        "classes",
        "subclass_edges",
        "disjointness",
        "_index",
        "_order",
        "_parents",
    )

    def __init__(
        self,
        side: int,
        classes: tuple[ClassId, ...],
        subclass_edges: tuple[tuple[ClassId, ClassId], ...],
        disjointness: tuple[tuple[ClassId, ClassId], ...],
        index: dict[str, int],
        order: tuple[int, ...],
        parents: tuple[tuple[int, ...], ...],
    ):
        self.side = side
        self.classes = classes
        self.subclass_edges = subclass_edges
        self.disjointness = disjointness
        self._index = index
        self._order = order
        self._parents = parents

    def __len__(self) -> int:
        return len(self.classes)

    def __repr__(self) -> str:
        return (
            f"Ontology(side={self.side}, classes={len(self.classes)}, "
            f"edges={len(self.subclass_edges)}, disjoint={len(self.disjointness)})"
        )

    def has_class(self, name: str) -> bool:
        return name in self._index

    def class_id(self, name: str) -> ClassId:
        if name not in self._index:
            raise OntologyError(f"unknown class {name!r} in ontology side {self.side}")
        return self.classes[self._index[name]]

    def reaches(self, a: ClassId, b: ClassId) -> bool:
        """Reflexive-transitive subclass relation inside this ontology."""
        return reaches_upward(self._parents, self._local(a), self._local(b))

    def _local(self, c: ClassId) -> int:
        if c.side != self.side or c.id not in self._index:
            raise OntologyError(f"class {c.id!r} not in ontology side {self.side}")
        return self._index[c.id]

    def local_index(self, name: str) -> int:
        return self._index[name]

    def roots_first_order(self) -> tuple[int, ...]:
        """Local indices with every superclass before its subclasses."""
        return self._order

    def local_parents(self) -> tuple[tuple[int, ...], ...]:
        """Direct superclasses of every class, as sorted local indices."""
        return self._parents


def build_ontology(
    side: int,
    classes: Iterable[str],
    subclass_edges: Iterable[tuple[str, str]] = (),
    disjointness: Iterable[tuple[str, str]] = (),
) -> Ontology:
    """Validate and index one ontology.

    Duplicate declarations are deduplicated silently.  Rejects undeclared
    class references, subclass cycles, self-disjointness, and ontologies
    that are incoherent on their own (a class under both members of a
    disjoint pair).
    """
    if side not in (1, 2):
        raise OntologyError(f"side must be 1 or 2, got {side!r}")
    names = sorted(set(classes))
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    def resolve(name: str, context: str) -> int:
        if name not in index:
            raise OntologyError(f"undeclared class {name!r} in {context}")
        return index[name]

    edge_set: set[tuple[int, int]] = set()
    for child, parent in subclass_edges:
        ic = resolve(child, f"SUBCLASS {child} {parent}")
        ip = resolve(parent, f"SUBCLASS {child} {parent}")
        if ic == ip:
            raise OntologyError(f"subclass cycle: {child!r} declared under itself")
        edge_set.add((ic, ip))

    disjoint_set: set[tuple[int, int]] = set()
    for a, b in disjointness:
        ia = resolve(a, f"DISJOINT {a} {b}")
        ib = resolve(b, f"DISJOINT {a} {b}")
        if ia == ib:
            raise OntologyError(f"class {a!r} declared disjoint with itself")
        disjoint_set.add((min(ia, ib), max(ia, ib)))

    parents: list[list[int]] = [[] for _ in range(n)]
    for ic, ip in sorted(edge_set):
        parents[ic].append(ip)

    order = dag_order_roots_first(n, parents)
    if order is None:
        in_cycle = _some_cycle_member(n, parents)
        raise OntologyError(
            f"subclass cycle in ontology side {side} (involves {names[in_cycle]!r})"
        )
    _check_coherent(names, parents, disjoint_set)

    class_ids = tuple(ClassId(name, side) for name in names)
    edges = tuple(
        (class_ids[ic], class_ids[ip]) for ic, ip in sorted(edge_set)
    )
    disjoint_pairs = tuple(
        tuple(sorted((class_ids[ia], class_ids[ib])))
        for ia, ib in sorted(disjoint_set)
    )
    return Ontology(
        side,
        class_ids,
        edges,
        disjoint_pairs,
        index,
        tuple(order),
        tuple(tuple(ps) for ps in parents),
    )


def _check_coherent(
    names: list[str], parents: list[list[int]], disjoint_set: set[tuple[int, int]]
) -> None:
    """Reject the first disjoint pair, in sorted order, with a common
    subclass, naming its smallest one.

    Each pair intersects the two members' descendant sets; a class can
    sit in several pairs, so its set is computed once.
    """
    if not disjoint_set:
        return
    children: list[list[int]] = [[] for _ in names]
    for v, ps in enumerate(parents):
        for p in ps:
            children[p].append(v)
    below: dict[int, set[int]] = {}

    def descendants(x: int) -> set[int]:
        seen = below.get(x)
        if seen is None:
            seen = {x}
            stack = [x]
            while stack:
                for c in children[stack.pop()]:
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
            below[x] = seen
        return seen

    for ia, ib in sorted(disjoint_set):
        both = descendants(ia) & descendants(ib)
        if both:
            raise OntologyError(
                f"input ontology incoherent: class {names[min(both)]!r} is subsumed by "
                f"disjoint classes {names[ia]!r} and {names[ib]!r}"
            )


def _some_cycle_member(n: int, parents: list[list[int]]) -> int:
    """A node on a parent-relation cycle (exists when topo sort failed)."""
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done

    for root in range(n):
        if state[root]:
            continue
        stack = [(root, iter(parents[root]))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for p in it:
                if state[p] == 1:
                    return p
                if state[p] == 0:
                    state[p] = 1
                    stack.append((p, iter(parents[p])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return 0


class MergedGraph:
    """Combined subsumption graph of two ontologies plus an alignment.

    Nodes are all classes of both sides; edges are the ontology subclass
    edges plus the directed edges induced by each mapping (two for an
    equivalence, one for a subsumption).  Queries run on the SCC
    condensation, whose component ids put every parent before its
    children (smaller id), so upward searches can skip lower ids.  Lazy
    caches are filled idempotently, so concurrent readers are safe.
    """

    __slots__ = (
        "o1",
        "o2",
        "alignment",
        "classes",
        "disjoint_pairs",
        "_index",
        "_adj",
        "_comp",
        "_comp_count",
        "_comp_members",
        "_cond_parents",
        "_cond_children",
        "_covers_cache",
    )

    def __init__(self, o1: Ontology, o2: Ontology, alignment: Alignment):
        if o1.side != 1 or o2.side != 2:
            raise ModelError("merged_view expects ontologies with sides 1 and 2")
        overlap = {c.id for c in o1.classes} & {c.id for c in o2.classes}
        if overlap:
            sample = sorted(overlap)[0]
            raise ModelError(
                f"class ids must be unique across both ontologies "
                f"({sample!r} appears on both sides)"
            )
        self.o1 = o1
        self.o2 = o2
        self.alignment = alignment

        self.classes = tuple(sorted(o1.classes + o2.classes))
        self._index = {c.id: i for i, c in enumerate(self.classes)}
        n = len(self.classes)

        adj: list[set[int]] = [set() for _ in range(n)]
        for onto in (o1, o2):
            for child, parent in onto.subclass_edges:
                adj[self._index[child.id]].add(self._index[parent.id])

        for m in alignment:
            if not o1.has_class(m.source.id):
                raise AlignmentError(
                    f"dangling mapping endpoint {m.source.id!r} (not in ontology 1)"
                )
            if not o2.has_class(m.target.id):
                raise AlignmentError(
                    f"dangling mapping endpoint {m.target.id!r} (not in ontology 2)"
                )
            for sub, sup in m.edges():
                adj[self._index[sub.id]].add(self._index[sup.id])

        self._adj: list[list[int]] = [sorted(s) for s in adj]
        self._comp_count, self._comp = tarjan_scc(n, self._adj)
        self._cond_parents = condensation_edges(
            n, self._adj, self._comp, self._comp_count
        )

        members: list[list[ClassId]] = [[] for _ in range(self._comp_count)]
        for i, c in enumerate(self.classes):
            members[self._comp[i]].append(c)
        self._comp_members = tuple(tuple(ms) for ms in members)

        self.disjoint_pairs = tuple(sorted(o1.disjointness + o2.disjointness))
        self._covers_cache: dict[int, tuple[int, ...]] = {}
        self._cond_children: list[list[int]] | None = None

    def __repr__(self) -> str:
        return (
            f"MergedGraph(classes={len(self.classes)}, "
            f"components={self._comp_count}, mappings={len(self.alignment)})"
        )

    # -- lookups ---------------------------------------------------------

    def _node(self, c: ClassId) -> int:
        i = self._index.get(c.id)
        if i is None or self.classes[i] != c:
            raise ModelError(f"unknown class {c.id!r} (side {c.side})")
        return i

    def out_neighbors(self, c: ClassId) -> tuple[ClassId, ...]:
        """Distinct direct successors (ontology and mapping edges alike)."""
        return tuple(self.classes[j] for j in self._adj[self._node(c)])

    # -- component-level queries ------------------------------------------

    @property
    def component_count(self) -> int:
        return self._comp_count

    def component_of(self, c: ClassId) -> int:
        return self._comp[self._node(c)]

    def component_members(self, comp: int) -> tuple[ClassId, ...]:
        return self._comp_members[comp]

    def component_parents(self) -> list[list[int]]:
        """Direct successors of every component in the condensation, in
        ascending order; each has a smaller id than its component.  The
        lists are shared: do not modify them."""
        return self._cond_parents

    def components_below(self, comp: int) -> frozenset[int]:
        """Components from which `comp` is reachable (reflexive)."""
        if self._cond_children is None:
            children: list[list[int]] = [[] for _ in range(self._comp_count)]
            for c, parents in enumerate(self._cond_parents):
                for p in parents:
                    children[p].append(c)
            self._cond_children = children
        seen = {comp}
        stack = [comp]
        while stack:
            u = stack.pop()
            for v in self._cond_children[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def component_covers(self, comp: int) -> tuple[int, ...]:
        """Components that cover `comp` in the condensation order.

        A parent component q is a cover unless another parent sits
        strictly between comp and q, so with fewer than two parents the
        parents are the covers.  Otherwise one upward search from the
        parents' parents finds the parents that lie above another one;
        it skips ids below the smallest parent, since nothing there
        reaches back up to a parent.
        """
        parents = self._cond_parents[comp]
        if len(parents) < 2:
            return tuple(parents)
        cached = self._covers_cache.get(comp)
        if cached is not None:
            return cached
        cond_parents = self._cond_parents
        floor = parents[0]
        seen: set[int] = set()
        stack = [g for q in parents for g in cond_parents[q] if g >= floor]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(
                g for g in cond_parents[u] if g >= floor and g not in seen
            )
        covers = tuple(q for q in parents if q not in seen)
        self._covers_cache[comp] = covers
        return covers

    # -- class-level queries ----------------------------------------------

    def entails(self, a: ClassId, b: ClassId) -> bool:
        """True iff a is (reflexively, transitively) subsumed by b."""
        ca = self._comp[self._node(a)]
        cb = self._comp[self._node(b)]
        return reaches_upward(self._cond_parents, ca, cb, floor=cb)

    def direct_superclasses(self, a: ClassId) -> tuple[ClassId, ...]:
        """Representatives of the components covering a's component.

        One representative (smallest class id) per covering component;
        members of a's own component are never reported.
        """
        comp = self._comp[self._node(a)]
        reps = [self._comp_members[q][0] for q in self.component_covers(comp)]
        return tuple(sorted(reps))


def merged_view(o1: Ontology, o2: Ontology, alignment: Alignment) -> MergedGraph:
    """Build the merged subsumption graph of two ontologies and an alignment."""
    return MergedGraph(o1, o2, alignment)
