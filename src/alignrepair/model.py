"""Ontologies, alignments, and the merged subsumption graph.

The merged graph combines the subclass edges of two ontologies with the
directed edges contributed by an alignment.  Equivalence mappings create
cycles, so component queries run on the SCC condensation.  Neither an
ontology nor the merged graph stores an all-pairs closure: both keep
adjacency lists, and queries search cones over them.

The engine runs on dense int ids: local ids inside an ontology, global
ids (name order across both sides) in the merged graph.  `ClassId`s are
built only for the public queries that take or return them.

All types are immutable once built; any number of threads may query a
MergedGraph concurrently.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .graphs import condensation_edges, reachable, tarjan_scc


class ModelError(ValueError):
    """Invalid ontology or alignment input."""


class OntologyError(ModelError):
    pass


class AlignmentError(ModelError):
    pass


# The CLI reports these two as input errors.  They live here, beside the
# other errors, so that `check` can catch them without importing the
# generator or conflict enumeration; those modules re-export them.
class GeneratorError(RuntimeError):
    """Parameter combination could not produce a coherent instance."""


class EnumerationCapExceeded(RuntimeError):
    """Raised when conflict enumeration exceeds its work budget instead of
    silently truncating (truncation would break completeness)."""


class ClassId(NamedTuple):
    """A named class, tagged with the ontology side (1 or 2) it belongs to."""

    id: str
    side: int


class Relation(str, Enum):
    """Kind of correspondence a mapping asserts between source and target."""

    EQUIVALENCE = "="
    SUBSUMED_BY = "<"  # source is a subclass of target
    SUBSUMES = ">"  # source is a superclass of target


class Mapping:
    """A weighted correspondence from a side-1 class to a side-2 class.

    Equality and hashing ignore the confidence: the canonical identity of
    a mapping is (source, target, relation).  `key` spells that identity
    out as strings, for deterministic ordering; it is computed once.
    Mappings are immutable.
    """

    __slots__ = ("source", "target", "relation", "confidence", "key")

    source: ClassId
    target: ClassId
    relation: Relation
    confidence: float
    key: tuple[str, str, str]

    def __init__(self, source: ClassId, target: ClassId, relation: Relation,
                 confidence: float = 1.0):
        if source.side != 1 or target.side != 2:
            raise AlignmentError(
                f"mapping must go from side 1 to side 2, got "
                f"{source.id} (side {source.side}) -> "
                f"{target.id} (side {target.side})"
            )
        if not 0.0 <= confidence <= 1.0:
            raise AlignmentError(
                f"confidence {confidence!r} outside [0, 1] for "
                f"{source.id} {relation.value} {target.id}"
            )
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "relation", relation)
        init(self, "confidence", confidence)
        init(self, "key", (source.id, target.id, relation.value))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.relation))

    def __repr__(self) -> str:
        return (f"Mapping(source={self.source!r}, target={self.target!r}, "
                f"relation={self.relation!r}, confidence={self.confidence!r})")

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
    is acyclic and coherent on its own.  The engine reads the fields on
    local ids, the positions of the classes in the sorted `names`:
    `index` maps a name to its id, `parents` lists every class's direct
    superclasses in ascending order, `order` puts every superclass
    before its subclasses (Kahn's order; a class it never reaches is on
    a cycle), and `disjoint` holds the sorted pairs in sorted order.
    They are read-only; `reachable(parents, v)` is the upward cone of
    class v.  The child lists that the build orders and checks with are
    not kept.  The ClassId views `classes`, `subclass_edges` and
    `disjointness` are built on first use.
    """

    __slots__ = ("side", "names", "index", "order", "parents", "disjoint",
                 "_classes", "_space")

    def __init__(self, side: int, names: list[str], index: dict[str, int],
                 order: tuple[int, ...], parents: tuple[tuple[int, ...], ...],
                 disjoint: tuple[tuple[int, int], ...]):
        self.side, self.names, self.index = side, names, index
        self.order, self.parents, self.disjoint = order, parents, disjoint
        self._classes: tuple[ClassId, ...] | None = None
        self._space: tuple[Ontology, GlobalIds] | None = None

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return (f"Ontology(side={self.side}, classes={len(self)}, edges="
                f"{sum(map(len, self.parents))}, disjoint={len(self.disjoint)})")

    @property
    def classes(self) -> tuple[ClassId, ...]:
        if self._classes is None:
            self._classes = tuple(ClassId(name, self.side) for name in self.names)
        return self._classes

    @property
    def subclass_edges(self) -> tuple[tuple[ClassId, ClassId], ...]:
        """Direct (child, parent) edges, deduplicated, in sorted order."""
        cls = self.classes
        return tuple((cls[c], cls[p]) for c, ps in enumerate(self.parents) for p in ps)

    @property
    def disjointness(self) -> tuple[tuple[ClassId, ClassId], ...]:
        """Disjoint pairs, each sorted, in sorted order."""
        names, side = self.names, self.side
        return tuple((ClassId(names[a], side), ClassId(names[b], side))
                     for a, b in self.disjoint)

    def has_class(self, name: str) -> bool:
        return name in self.index

    def class_id(self, name: str) -> ClassId:
        if name not in self.index:
            raise OntologyError(f"unknown class {name!r} in ontology side {self.side}")
        return ClassId(name, self.side)


def build_ontology(
    side: int,
    classes: Iterable[str],
    subclass_edges: Iterable[tuple[str, str]] = (),
    disjointness: Iterable[tuple[str, str]] = (),
) -> Ontology:
    """Validate and index one ontology.

    Duplicate declarations are deduplicated silently.  Rejects undeclared
    class references, subclass cycles (naming the smallest class that
    lies on one), self-disjointness, and ontologies that are incoherent
    on their own (a class under both members of a disjoint pair).
    """
    if side not in (1, 2):
        raise OntologyError(f"side must be 1 or 2, got {side!r}")
    names = sorted(set(classes))
    index = {name: i for i, name in enumerate(names)}
    edges = set(_resolve_pairs(index, list(subclass_edges), "SUBCLASS",
                               "subclass cycle: {!r} declared under itself"))
    disjoint = {(min(p), max(p)) for p in _resolve_pairs(
        index, list(disjointness), "DISJOINT", "class {!r} declared disjoint with itself"
    )}
    return _index_ontology(side, names, index, edges, disjoint)


def _index_ontology(
    side: int,
    names: list[str],
    index: dict[str, int],
    edges: Collection[tuple[int, int]],
    disjoint: Collection[tuple[int, int]],
    children: list[list[int]] | None = None,
) -> Ontology:
    """The int half of :func:`build_ontology`: index and validate one
    ontology given as local ids.  `names` must be sorted, and `index`
    must map each name to its position.

    `edges` holds distinct (child, parent) pairs and `disjoint` distinct
    (smaller, larger) pairs, each in any order.  One loop fills the
    parent lists and, unless the caller passes the child lists of the
    same edges as `children`, those too.  The child lists serve the
    ordering and the coherence check and are then dropped.
    """
    n = len(names)
    parents: list[list[int]] = [[] for _ in range(n)]
    if children is None:
        children = [[] for _ in range(n)]
        for c, p in edges:
            parents[c].append(p)
            children[p].append(c)
    else:
        for c, p in edges:
            parents[c].append(p)
    for ps in parents:
        if len(ps) > 1:
            ps.sort()
    order = _roots_first_order(side, names, parents, children)
    _check_coherent(names, children, disjoint)
    del children  # freed before the tuples below, unless the caller keeps them
    return Ontology(side, names, index, order,
                    tuple(map(tuple, parents)), tuple(sorted(disjoint)))


def _roots_first_order(
    side: int, names: list[str], parents: list[list[int]], children: list[list[int]]
) -> tuple[int, ...]:
    """Every class after its parents, by Kahn's algorithm: a class joins
    the order once its last parent has.  If some class never joins, the
    graph has a cycle, and Tarjan's components name the smallest class
    that lies on one."""
    waiting = list(map(len, parents))
    order = [v for v, k in enumerate(waiting) if not k]
    for v in order:  # the loop also visits what it appends
        for c in children[v]:
            waiting[c] -= 1
            if not waiting[c]:
                order.append(c)
    n = len(names)
    if len(order) < n:
        _, comp = tarjan_scc(n, parents)
        size = Counter(comp)
        in_cycle = next(v for v in range(n) if size[comp[v]] > 1)
        raise OntologyError(
            f"subclass cycle in ontology side {side} (involves {names[in_cycle]!r})"
        )
    return tuple(order)


def _resolve_pairs(
    index: dict[str, int], pairs: list[tuple[str, str]], keyword: str, same: str
) -> list[tuple[int, int]]:
    """Local ids of every (a, b) line.  On a bad line the lines are
    scanned again in input order, and the first one raises: an undeclared
    class names the line, a class paired with itself fills in `same`."""
    try:
        resolved = [(index[a], index[b]) for a, b in pairs]
        if all(ia != ib for ia, ib in resolved):
            return resolved
    except KeyError:
        pass
    for a, b in pairs:
        for name in (a, b):
            if name not in index:
                raise OntologyError(f"undeclared class {name!r} in {keyword} {a} {b}")
        if a == b:
            raise OntologyError(same.format(a))
    raise AssertionError("unreachable: some line failed to resolve")


def _check_coherent(
    names: list[str], children: list[list[int]], disjoint: Collection[tuple[int, int]]
) -> None:
    """Reject the first disjoint pair, in sorted order, with a common
    subclass, naming its smallest one.

    Each pair intersects the two members' descendant sets; a class can
    sit in several pairs, so its set is computed once.
    """
    if not disjoint:
        return
    members = {x for pair in disjoint for x in pair}
    below = {x: reachable(children, x) for x in members}
    for ia, ib in sorted(disjoint):
        both = below[ia] & below[ib]
        if both:
            raise OntologyError(
                f"input ontology incoherent: class {names[min(both)]!r} is subsumed by "
                f"disjoint classes {names[ia]!r} and {names[ib]!r}"
            )


class GlobalIds:
    """The alignment-free half of every merged view of one ontology pair.

    Global ids number the classes of both sides in name order, so int
    order is ClassId order.  `glob[side - 1]` maps a side's local ids to
    global ids; the map is monotone, so mapped parent lists stay sorted.
    `parents[side - 1]` holds a side's parent lists on local ids, and
    `down` the child lists on global ids.  One instance serves every
    view of the pair (it is cached on the side-1 ontology); its lists
    are shared and never modified.
    """

    __slots__ = ("names", "index", "glob", "parents", "down", "disjoint")

    def __init__(self, o1: Ontology, o2: Ontology):
        names = sorted(o1.names + o2.names)  # timsort: one merge of two runs
        at = {name: g for g, name in enumerate(names)}
        if len(at) < len(names):
            raise ModelError(
                f"class ids must be unique across both ontologies "
                f"({min(set(o1.names) & set(o2.names))!r} appears on both sides)"
            )
        self.names = names
        self.index = (o1.index, o2.index)
        self.glob = tuple(list(map(at.__getitem__, o.names)) for o in (o1, o2))
        self.parents = (o1.parents, o2.parents)
        self.down: list[list[int]] = [[] for _ in names]
        for ps_of, g in zip(self.parents, self.glob):
            for gi, ps in zip(g, ps_of):
                for p in ps:
                    self.down[g[p]].append(gi)
        self.disjoint = tuple(sorted(
            (g[a], g[b]) for o, g in zip((o1, o2), self.glob) for a, b in o.disjoint
        ))

    def node(self, c: ClassId) -> int:
        """Global id of a class."""
        local = self.index[c.side - 1].get(c.id) if c.side in (1, 2) else None
        if local is None:
            raise ModelError(f"unknown class {c.id!r} (side {c.side})")
        return self.glob[c.side - 1][local]

    def locate(self, g: int) -> tuple[int, int]:
        """(side, local id) of a global id."""
        local = self.index[0].get(self.names[g])
        return (1, local) if local is not None else (2, self.index[1][self.names[g]])

    def class_at(self, g: int) -> ClassId:
        return ClassId(self.names[g], self.locate(g)[0])


class MergedGraph:
    """Combined subsumption graph of two ontologies plus an alignment.

    Nodes are all classes of both sides, under the pair's `GlobalIds`;
    edges are the ontology subclass edges plus the directed edges induced
    by each mapping (two for an equivalence, one for a subsumption).  A
    view builds only the mapping edges, as child lists beside the pair's
    `down`; `nodes_below` searches the downward cone of a class over
    both, so a is subsumed by b iff a's id is in `nodes_below` of b's.
    `adj`, the parent lists, is built on first use: each class's
    ontology parents and mapping heads in one sorted, distinct list (do
    not modify them).  Only fragment extraction reads it.  Component
    queries run on the SCC condensation of `adj`, computed on first use,
    whose ids put every parent before its children (smaller id).
    `component_covers`, on the checkset's hot path, runs its own upward
    search that skips ids below the smallest parent.  Lazy caches are
    filled idempotently, so concurrent readers are safe.
    """

    __slots__ = ("alignment", "ids", "_down_extra", "_adj", "_scc")

    def __init__(self, o1: Ontology, o2: Ontology, alignment: Alignment):
        if o1.side != 1 or o2.side != 2:
            raise ModelError("merged_view expects ontologies with sides 1 and 2")
        cached = o1._space  # the pair's ids, kept while o2 is o1's partner
        if cached is None or cached[0] is not o2:
            cached = o1._space = (o2, GlobalIds(o1, o2))
        self.ids = ids = cached[1]
        self.alignment = alignment

        self._down_extra: dict[int, list[int]] = {}
        for m in alignment:
            for c, onto in ((m.source, o1), (m.target, o2)):
                if not onto.has_class(c.id):
                    raise AlignmentError(f"dangling mapping endpoint {c.id!r} "
                                         f"(not in ontology {onto.side})")
            for sub, sup in m.edges():
                self._down_extra.setdefault(ids.node(sup), []).append(ids.node(sub))
        self._adj: list[Sequence[int]] | None = None
        self._scc: tuple[int, list[int], list[list[int]]] | None = None

    def __repr__(self) -> str:
        return (f"MergedGraph(classes={len(self.ids.names)}, "
                f"components={self.component_count}, mappings={len(self.alignment)})")

    @property
    def adj(self) -> list[Sequence[int]]:
        """Parent lists by global id, mapping edges included."""
        if self._adj is None:
            heads: dict[int, set[int]] = {}
            for v, us in self._down_extra.items():
                for u in us:
                    heads.setdefault(u, set()).add(v)
            adj: list[Sequence[int]] = [()] * len(self.ids.names)
            for ps_of, g in zip(self.ids.parents, self.ids.glob):
                for gi, ps in zip(g, ps_of):
                    extra = heads.get(gi)
                    if extra:
                        adj[gi] = sorted(extra.union(g[p] for p in ps))
                    elif ps:
                        adj[gi] = [g[p] for p in ps]
            self._adj = adj
        return self._adj

    def nodes_below(self, g: int) -> set[int]:
        """Nodes from which `g` is reachable (reflexive)."""
        return reachable(self.ids.down, g, self._down_extra)

    def incoherent_ids(self) -> set[int]:
        """Global ids of every class under both members of a disjoint pair."""
        bad: set[int] = set()
        for a, b in self.ids.disjoint:
            bad |= self.nodes_below(a) & self.nodes_below(b)
        return bad

    # -- component-level queries ------------------------------------------

    def _components(self) -> tuple[int, list[int], list[list[int]]]:
        """(count, component of every node, condensation parent lists)."""
        if self._scc is None:
            adj = self.adj
            count, comp = tarjan_scc(len(adj), adj)
            self._scc = (count, comp, condensation_edges(len(adj), adj, comp, count))
        return self._scc

    @property
    def component_count(self) -> int:
        return self._components()[0]

    def members_of(self, comps: set[int]) -> list[int]:
        """Global ids of every member of the given components, ascending."""
        return [g for g, c in enumerate(self._components()[1]) if c in comps]

    def component_parents(self) -> list[list[int]]:
        """Direct successors of every component in the condensation, in
        ascending order; each has a smaller id than its component.  The
        lists are shared: do not modify them."""
        return self._components()[2]

    def component_covers(self, comp: int) -> tuple[int, ...]:
        """Components that cover `comp` in the condensation order.

        A parent component q is a cover unless another parent sits
        strictly between comp and q, so with fewer than two parents the
        parents are the covers.  Otherwise one upward search from the
        parents' parents finds the parents that lie above another one;
        it skips ids below the smallest parent, since nothing there
        leads back up to a parent.
        """
        cond_parents = self._components()[2]
        parents = cond_parents[comp]
        if len(parents) < 2:
            return tuple(parents)
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
        return tuple(q for q in parents if q not in seen)


def merged_view(o1: Ontology, o2: Ontology, alignment: Alignment) -> MergedGraph:
    """Build the merged subsumption graph of two ontologies and an alignment."""
    return MergedGraph(o1, o2, alignment)
