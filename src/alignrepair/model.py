"""Ontologies, alignments, and the merged subsumption graph.

The merged graph combines the subclass edges of two ontologies with the
directed edges contributed by an alignment.  Equivalence mappings create
cycles.  Neither an ontology nor the merged graph stores an all-pairs
closure: both keep adjacency lists, and queries search cones over them.

The engine runs on dense int ids: local ids inside an ontology, global
ids (name order across both sides) in the merged graph.  `ClassId`s are
built only for the public queries that take or return them.

All types are immutable once built; any number of threads may query a
MergedGraph concurrently.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain
from typing import Collection, Iterable, Iterator, NamedTuple

from .graphs import below_both, tarjan_scc


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
    out as strings, for deterministic ordering; it is computed once, and
    both comparing and hashing use it.  Mappings are immutable.
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
        return hash(self.key)

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

    __slots__ = ("_mappings",)

    def __init__(self, mappings: Iterable[Mapping] = ()):
        ordered = sorted(mappings, key=lambda m: m.key)
        for a, b in zip(ordered, ordered[1:]):
            if a.key == b.key:
                raise AlignmentError(f"duplicate mapping {a.describe()!r}")
        self._mappings: tuple[Mapping, ...] = tuple(ordered)

    @property
    def mappings(self) -> tuple[Mapping, ...]:
        return self._mappings

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def __len__(self) -> int:
        return len(self._mappings)

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
    `disjointness` are built on each access.
    """

    __slots__ = ("side", "names", "index", "order", "parents", "disjoint")

    def __init__(self, side: int, names: list[str], index: dict[str, int],
                 order: tuple[int, ...], parents: tuple[tuple[int, ...], ...],
                 disjoint: tuple[tuple[int, int], ...]):
        self.side, self.names, self.index = side, names, index
        self.order, self.parents, self.disjoint = order, parents, disjoint

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return (f"Ontology(side={self.side}, classes={len(self)}, edges="
                f"{sum(map(len, self.parents))}, disjoint={len(self.disjoint)})")

    @property
    def classes(self) -> tuple[ClassId, ...]:
        return tuple(ClassId(name, self.side) for name in self.names)

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
    children: list[list[int]] = [[] for _ in names]
    for c, p in set(_resolve_pairs(index, subclass_edges, "SUBCLASS",
                                   "subclass cycle: {!r} declared under itself")):
        children[p].append(c)
    disjoint = {(min(p), max(p)) for p in _resolve_pairs(
        index, disjointness, "DISJOINT", "class {!r} declared disjoint with itself"
    )}
    return _index_ontology(side, names, index, children, disjoint)


def _index_ontology(
    side: int,
    names: list[str],
    index: dict[str, int],
    children: list[list[int]],
    disjoint: Collection[tuple[int, int]],
) -> Ontology:
    """The int half of :func:`build_ontology`: index and validate one
    ontology given as local ids.  `names` must be sorted, and `index`
    must map each name to its position, in name order.

    `children[p]` holds class p's distinct direct subclasses and
    `disjoint` distinct (smaller, larger) pairs, each in any order.  The
    parent lists, filled in id order, come out ascending.  The child
    lists serve the ordering and the coherence check; the ontology does
    not keep them.
    """
    parents: list[list[int]] = [[] for _ in names]
    for p, cs in zip(index.values(), children):
        for c in cs:
            parents[c].append(p)
    order = _roots_first_order(side, names, parents, children)
    pairs = tuple(sorted(disjoint))
    _check_coherent(names, children, pairs)
    return Ontology(side, names, index, order, tuple(map(tuple, parents)), pairs)


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
    index: dict[str, int], pairs: Iterable[tuple[str, str]], keyword: str, same: str
) -> list[tuple[int, int]]:
    """Local ids of every (a, b) line, read once in input order.  The
    first bad line raises: an undeclared class names the line, a class
    paired with itself fills in `same`."""
    resolved = []
    for a, b in pairs:
        ia, ib = index.get(a), index.get(b)
        if ia is None or ib is None:
            name = a if ia is None else b
            raise OntologyError(f"undeclared class {name!r} in {keyword} {a} {b}")
        if ia == ib:
            raise OntologyError(same.format(a))
        resolved.append((ia, ib))
    return resolved


def _check_coherent(
    names: list[str], children: list[list[int]], disjoint: tuple[tuple[int, int], ...]
) -> None:
    """Reject the first disjoint pair, in the given sorted order, with a
    common subclass, naming its smallest one."""
    for (ia, ib), both in zip(disjoint, below_both(children, disjoint)):
        if both:
            raise OntologyError(
                f"input ontology incoherent: class {names[min(both)]!r} is subsumed by "
                f"disjoint classes {names[ia]!r} and {names[ib]!r}"
            )


class MergedGraph:
    """Combined subsumption graph of two ontologies plus an alignment.

    Nodes are all classes of both sides.  Global ids number them in name
    order, so int order is ClassId order.  `sides` holds the two
    ontologies, whose parent lists the engine reads on local ids, and
    `glob[side - 1]` maps a side's local ids to global ids; the map is
    monotone, so mapped parent lists stay sorted.  `down` holds the
    subclass edges as child lists on global ids, and `disjoint` both
    sides' disjoint pairs on global ids, sorted.  Each mapping's
    `Mapping.edges` are resolved once: `mapping_edges` maps a mapping
    key to them on global ids.  A view serves its alignment and any
    subset of it, and raises ValueError on any other mapping.  Nothing
    modifies its lists once built.
    """

    __slots__ = ("sides", "names", "glob", "down", "disjoint", "mapping_edges")

    def __init__(self, o1: Ontology, o2: Ontology, alignment: Alignment):
        if o1.side != 1 or o2.side != 2:
            raise ModelError("merged_view expects ontologies with sides 1 and 2")
        names = sorted(o1.names + o2.names)  # timsort: one merge of two runs
        at = {name: g for g, name in enumerate(names)}
        if len(at) < len(names):
            raise ModelError(
                f"class ids must be unique across both ontologies "
                f"({min(set(o1.names) & set(o2.names))!r} appears on both sides)"
            )
        self.sides = sides = (o1, o2)
        self.names = names
        self.glob = glob = tuple(list(map(at.__getitem__, o.names)) for o in sides)
        self.down: list[list[int]] = [[] for _ in names]
        for o, g in zip(sides, glob):
            for gi, ps in zip(g, o.parents):
                for p in ps:
                    self.down[g[p]].append(gi)
        self.disjoint = tuple(sorted(
            (g[a], g[b]) for o, g in zip(sides, glob) for a, b in o.disjoint
        ))
        self.mapping_edges: dict[tuple[str, str, str], tuple[tuple[int, int], ...]] = {}
        for m in alignment:
            ends = {}
            for c in (m.source, m.target):
                local = sides[c.side - 1].index.get(c.id)
                if local is None:
                    raise AlignmentError(f"dangling mapping endpoint {c.id!r} "
                                         f"(not in ontology {c.side})")
                ends[c] = glob[c.side - 1][local]
            self.mapping_edges[m.key] = tuple((ends[u], ends[v]) for u, v in m.edges())

    def __repr__(self) -> str:
        return (f"MergedGraph(classes={len(self.names)}, "
                f"mappings={len(self.mapping_edges)})")

    def node(self, c: ClassId) -> int:
        """Global id of a class."""
        local = self.sides[c.side - 1].index.get(c.id) if c.side in (1, 2) else None
        if local is None:
            raise ModelError(f"unknown class {c.id!r} (side {c.side})")
        return self.glob[c.side - 1][local]

    def locate(self, g: int) -> tuple[int, int]:
        """(side, local id) of a global id."""
        name = self.names[g]
        local = self.sides[0].index.get(name)
        return (1, local) if local is not None else (2, self.sides[1].index[name])

    def class_at(self, g: int) -> ClassId:
        return ClassId(self.names[g], self.locate(g)[0])

    def edges_of(self, m: Mapping) -> tuple[tuple[int, int], ...]:
        """Global (subclass, superclass) edges of a mapping of the view."""
        edges = self.mapping_edges.get(m.key)
        if edges is None:
            raise ValueError(f"mapping {m.describe()!r} is not in the alignment the "
                             "fragments were extracted from (the view's); a view and "
                             "its fragments serve that alignment and its subsets")
        return edges

    def child_lists(
        self, subset: Iterable[Mapping] | None = None
    ) -> dict[int, list[int]]:
        """The mapping edges of the view's alignment, or of `subset`, as
        child lists beside `down`: superclass to subclasses."""
        lists: dict[int, list[int]] = {}
        for edges in (self.mapping_edges.values() if subset is None
                      else map(self.edges_of, subset)):
            for sub, sup in edges:
                lists.setdefault(sup, []).append(sub)
        return lists

    def incoherent_ids(self, subset: Iterable[Mapping] | None = None) -> set[int]:
        """Global ids of every class under both members of a disjoint
        pair, with the view's alignment or the `subset` of it."""
        both = below_both(self.down, self.disjoint, self.child_lists(subset))
        return set(chain.from_iterable(both))

    def merged_child_lists(self) -> list[list[int]]:
        """The merged graph's child lists by global id: `down` plus the mapping edges."""
        down, extra = self.down, self.child_lists()
        return [[*ds, *extra[g]] if g in extra else ds for g, ds in enumerate(down)]

    @property
    def component_count(self) -> int:
        """Strongly connected components of the merged graph, counted on each read."""
        return tarjan_scc(len(self.names), self.merged_child_lists())[0]


def merged_view(o1: Ontology, o2: Ontology, alignment: Alignment) -> MergedGraph:
    """Build the merged subsumption graph of two ontologies and an alignment."""
    return MergedGraph(o1, o2, alignment)
