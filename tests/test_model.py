"""Ontology validation, merged-graph queries, and their brute-force oracles."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alignrepair.model
from alignrepair import (
    Alignment,
    AlignmentError,
    ClassId,
    Mapping,
    ModelError,
    OntologyError,
    Relation,
    build_ontology,
    count_incoherent_classes,
    extract_core_fragments,
    merged_view,
)
from alignrepair.fragments import _condensation, _has_two_covers
from alignrepair.graphs import reachable
from alignrepair.model import MergedGraph, Ontology
from alignrepair.oracle import _merged_adjacency, exhaustive_incoherence

from conftest import (
    brute_direct_superclasses,
    brute_entails,
    brute_reachable,
    generated_instances,
    renamed_instance,
)


def entails(view, a, b):
    """a is (reflexively, transitively) subsumed by b: a lies in b's
    downward cone over the view's subclass and mapping child lists."""
    cone = reachable(view.down, view.node(b), view.child_lists())
    return view.node(a) in cone


def components(view):
    """The component of every node, by Tarjan on the merged child lists,
    as fragment extraction numbers them."""
    return _condensation(view)[0]


def has_two_covers(view, a):
    """Whether a's component has two or more covering components, by
    the two-cover test of the checkset."""
    comp, parents, height = _condensation(view)
    return _has_two_covers(parents, height, comp[view.node(a)])


def brute_cover_count(o1, o2, align, a):
    """Covering components of a's component, by the brute closure: its
    direct superclasses, one per class of mutually subsumed ones."""
    reach = brute_entails(o1, o2, align)
    covers = sorted(brute_direct_superclasses(o1, o2, align, a))
    return sum(
        1 for i, b in enumerate(covers)
        if not any(reach(b, c) and reach(c, b) for c in covers[:i])
    )


def onto_reaches(onto, a, b):
    """b is in the upward cone of a inside one ontology."""
    return onto.index[b.id] in reachable(onto.parents, onto.index[a.id])


class TestBuildOntology:
    def test_f1_side1_shape(self, f1):
        assert len(f1.o1) == 4
        assert len(f1.o1.subclass_edges) == 1
        assert len(f1.o1.disjointness) == 1

    def test_undeclared_class_rejected(self):
        with pytest.raises(OntologyError, match="undeclared"):
            build_ontology(1, ["A"], [("A", "B")])

    def test_cycle_rejected(self):
        with pytest.raises(OntologyError, match="cycle"):
            build_ontology(1, ["X", "Y"], [("X", "Y"), ("Y", "X")])

    @pytest.mark.parametrize("classes, edges, named", [
        (["X", "Y"], [("X", "Y"), ("Y", "X")], "X"),
        # A sits under the cycle without being on it, so a search from A
        # that names the first class it meets twice would name C.
        (["A", "B", "C"], [("A", "C"), ("B", "C"), ("C", "B")], "B"),
        (["A", "B", "C", "D", "E"],
         [("D", "E"), ("E", "D"), ("C", "B"), ("B", "C"), ("A", "D")], "B"),
    ])
    def test_cycle_error_names_the_smallest_class_on_a_cycle(
        self, classes, edges, named
    ):
        with pytest.raises(OntologyError) as info:
            build_ontology(1, classes, edges)
        assert str(info.value) == (
            f"subclass cycle in ontology side 1 (involves {named!r})"
        )

    def test_self_edge_rejected(self):
        with pytest.raises(OntologyError, match="cycle"):
            build_ontology(1, ["X"], [("X", "X")])

    def test_undeclared_class_messages_name_the_first_bad_line(self):
        cases = [
            ([("A", "B"), ("A", "C")], [], "undeclared class 'C' in SUBCLASS A C"),
            ([("A", "B")], [("X", "B")], "undeclared class 'X' in DISJOINT X B"),
            ([("P", "Q")], [], "undeclared class 'P' in SUBCLASS P Q"),
            ([("A", "A"), ("A", "C")], [], "subclass cycle: 'A' declared under itself"),
        ]
        for edges, disjoint, message in cases:
            with pytest.raises(OntologyError) as info:
                build_ontology(1, ["A", "B"], edges, disjoint)
            assert str(info.value) == message

    def test_one_shot_iterables_build_the_same_ontology(self):
        """Each argument is read once, so one-shot iterators build what
        lists do, and the first bad line still names the error."""
        classes, edges = ["A", "B", "C"], [("B", "A"), ("C", "A")]
        disjoint = [("B", "C")]
        from_lists = build_ontology(1, classes, edges, disjoint)
        from_iters = build_ontology(1, iter(classes), iter(edges), iter(disjoint))
        assert all(getattr(from_iters, name) == getattr(from_lists, name)
                   for name in Ontology.__slots__)
        cases = [
            ([("A", "A"), ("A", "Z")], [], "subclass cycle: 'A' declared under itself"),
            ([("A", "Z"), ("A", "A")], [], "undeclared class 'Z' in SUBCLASS A Z"),
            ([], [("B", "B"), ("Z", "B")], "class 'B' declared disjoint with itself"),
            ([], [("Z", "B"), ("B", "B")], "undeclared class 'Z' in DISJOINT Z B"),
        ]
        for edges, disjoint, message in cases:
            with pytest.raises(OntologyError) as info:
                build_ontology(1, iter(["A", "B"]), iter(edges), iter(disjoint))
            assert str(info.value) == message

    def test_self_disjoint_rejected(self):
        with pytest.raises(OntologyError, match="disjoint with itself"):
            build_ontology(1, ["A"], [], [("A", "A")])

    def test_incoherent_input_rejected(self):
        with pytest.raises(OntologyError, match="incoherent"):
            build_ontology(
                1, ["A", "B", "C"], [("A", "B"), ("A", "C")], [("B", "C")]
            )

    def test_incoherence_error_names_first_pair_and_smallest_class(self):
        # X, Y and Z are under both B and C, A under both D and E.  (B, C)
        # sorts first; X is its smallest common subclass, though the
        # deepest.
        with pytest.raises(OntologyError) as info:
            build_ontology(
                1,
                ["A", "B", "C", "D", "E", "X", "Y", "Z"],
                [("Y", "B"), ("Y", "C"), ("Z", "Y"), ("X", "Z"),
                 ("A", "D"), ("A", "E")],
                [("E", "D"), ("C", "B")],
            )
        assert str(info.value) == (
            "input ontology incoherent: class 'X' is subsumed by disjoint "
            "classes 'B' and 'C'"
        )

    def test_disjoint_pair_with_subclass_between_rejected(self):
        # B <= C makes B itself incoherent under disjoint(B, C)
        with pytest.raises(OntologyError, match="incoherent"):
            build_ontology(1, ["B", "C"], [("B", "C")], [("B", "C")])

    def test_duplicate_declarations_deduplicated(self):
        onto = build_ontology(
            1, ["A", "B", "A"], [("A", "B"), ("A", "B")], []
        )
        assert len(onto) == 2
        assert len(onto.subclass_edges) == 1

    def test_reaches_is_reflexive(self, f3):
        d = f3.class_id("D")
        assert onto_reaches(f3, d, d)
        assert onto_reaches(f3, d, f3.class_id("A"))
        assert not onto_reaches(f3, f3.class_id("A"), d)


class TestMapping:
    def test_identity_ignores_confidence(self):
        a = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.EQUIVALENCE, 0.3)
        b = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.EQUIVALENCE, 0.9)
        assert a == b
        assert len({a, b}) == 1

    def test_hash_ignores_confidence(self):
        a = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.SUBSUMED_BY, 0.1)
        b = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.SUBSUMED_BY, 1.0)
        assert hash(a) == hash(b) == hash(a.key)

    def test_value_semantics(self):
        """Fields, repr, hash, order and immutability of the two value
        types; the reprs keep the dataclass form."""
        c = ClassId("x", 1)
        m = Mapping(c, ClassId("y", 2), Relation.SUBSUMES, 0.3)
        assert repr(c) == "ClassId(id='x', side=1)"
        assert repr(m) == (
            "Mapping(source=ClassId(id='x', side=1), target=ClassId(id='y', "
            "side=2), relation=<Relation.SUBSUMES: '>'>, confidence=0.3)"
        )
        assert (c.id, c.side, m.key, m.confidence) == ("x", 1, ("x", "y", ">"), 0.3)
        assert hash(c) == hash(("x", 1))
        assert hash(m) == hash(m.key)
        assert sorted([ClassId("b", 1), ClassId("a", 2), c]) == [
            ClassId("a", 2), ClassId("b", 1), c
        ]
        assert m != Mapping(c, ClassId("y", 2), Relation.SUBSUMED_BY, 0.3)
        for mutate in (lambda: setattr(c, "id", "z"),
                       lambda: setattr(m, "confidence", 1.0),
                       lambda: delattr(m, "key")):
            with pytest.raises(AttributeError):
                mutate()

    def test_sides_enforced(self):
        with pytest.raises(AlignmentError, match=r"^mapping must go from side 1 "
                           r"to side 2, got x \(side 2\) -> y \(side 2\)$"):
            Mapping(ClassId("x", 2), ClassId("y", 2), Relation.EQUIVALENCE)

    def test_confidence_range_enforced(self):
        with pytest.raises(AlignmentError,
                           match=r"^confidence 1\.5 outside \[0, 1\] for x = y$"):
            Mapping(ClassId("x", 1), ClassId("y", 2), Relation.EQUIVALENCE, 1.5)

    def test_alignment_rejects_duplicate_identity(self):
        a = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.EQUIVALENCE, 0.3)
        b = Mapping(ClassId("x", 1), ClassId("y", 2), Relation.EQUIVALENCE, 0.9)
        with pytest.raises(AlignmentError, match="duplicate"):
            Alignment([a, b])

    @pytest.mark.parametrize("relation", list(Relation))
    def test_edges_match_the_oracle_rule(self, relation):
        o1 = build_ontology(1, ["s"])
        o2 = build_ontology(2, ["t"])
        m = Mapping(o1.class_id("s"), o2.class_id("t"), relation)
        down = _merged_adjacency(o1, o2, [m])
        expected = {(sub, sup) for sup, subs in down.items() for sub in subs}
        assert set(m.edges()) == expected


class TestMergedView:
    def test_f1_full_has_equivalence_component(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        assert len(view.names) == 6
        comp = components(view)
        assert comp[view.node(f1.cid("A1"))] == comp[view.node(f1.cid("A2"))]

    def test_f1_empty_alignment_all_singletons(self, f1):
        view = merged_view(f1.o1, f1.o2, Alignment())
        assert view.component_count == len(view.names)
        assert sorted(components(view)) == list(range(len(view.names)))

    def test_f1_only_m2_edge_present(self, f1):
        view = merged_view(f1.o1, f1.o2, Alignment([f1.m2]))
        assert view.component_count == len(view.names)
        down = view.merged_child_lists()
        assert view.node(f1.cid("A2")) in down[view.node(f1.cid("C1"))]

    def test_relation_edge_directions(self):
        o1 = build_ontology(1, ["s"])
        o2 = build_ontology(2, ["t"])
        s, t = o1.class_id("s"), o2.class_id("t")
        sub = merged_view(o1, o2, Alignment([Mapping(s, t, Relation.SUBSUMED_BY)]))
        assert entails(sub, s, t) and not entails(sub, t, s)
        sup = merged_view(o1, o2, Alignment([Mapping(s, t, Relation.SUBSUMES)]))
        assert entails(sup, t, s) and not entails(sup, s, t)
        eq = merged_view(o1, o2, Alignment([Mapping(s, t, Relation.EQUIVALENCE)]))
        assert entails(eq, s, t) and entails(eq, t, s)
        comp = components(eq)
        assert comp[eq.node(s)] == comp[eq.node(t)]
        assert eq.component_count == 1

    def test_dangling_endpoint_rejected(self, f1):
        for source, target, side in (("nope", "A2", 1), ("A1", "nope", 2)):
            stray = Mapping(ClassId(source, 1), ClassId(target, 2),
                            Relation.EQUIVALENCE)
            with pytest.raises(AlignmentError, match=r"^dangling mapping endpoint "
                               rf"'nope' \(not in ontology {side}\)$"):
                merged_view(f1.o1, f1.o2, Alignment([stray]))

    def test_duplicate_ids_across_sides_rejected(self):
        """The view names the smallest class that both sides declare."""
        o1 = build_ontology(1, ["R", "Q", "Z"], [("Q", "R")])
        o2 = build_ontology(2, ["R", "Q", "A"])
        with pytest.raises(ModelError, match=r"^class ids must be unique across both "
                           r"ontologies \('Q' appears on both sides\)$"):
            merged_view(o1, o2, Alignment())

    def test_swapped_sides_rejected(self, f1):
        with pytest.raises(ModelError, match=r"^merged_view expects ontologies with "
                           r"sides 1 and 2$"):
            merged_view(f1.o2, f1.o1, Alignment())

    def test_unknown_class_query_rejected(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        with pytest.raises(ModelError, match="unknown"):
            entails(view, ClassId("ghost", 1), f1.cid("B1"))


class TestEntails:
    def test_f1_fixtures(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        assert entails(view, f1.cid("A2"), f1.cid("B1"))
        assert entails(view, f1.cid("A2"), f1.cid("A2"))
        assert not entails(view, f1.cid("B1"), f1.cid("A2"))

    def test_empty_alignment_matches_per_ontology_reachability(self, f1):
        view = merged_view(f1.o1, f1.o2, Alignment())
        for onto in (f1.o1, f1.o2):
            for a in onto.classes:
                for b in onto.classes:
                    assert entails(view, a, b) == onto_reaches(onto, a, b)


class TestDirectSuperclasses:
    def test_f3_diamond(self, f3):
        o2 = build_ontology(2, ["z"])
        view = merged_view(f3, o2, Alignment())
        d = f3.class_id("D")
        assert {c.id for c in brute_direct_superclasses(f3, o2, [], d)} == {"B", "C"}
        assert brute_cover_count(f3, o2, [], d) == 2
        assert has_two_covers(view, d)

    def test_chain_single_cover(self):
        o1 = build_ontology(1, ["A", "B", "C"], [("A", "B"), ("B", "C")])
        o2 = build_ontology(2, ["z"])
        view = merged_view(o1, o2, Alignment())
        a = o1.class_id("A")
        assert {c.id for c in brute_direct_superclasses(o1, o2, [], a)} == {"B"}
        assert not has_two_covers(view, a)

    def test_f1_component_covered_by_three(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        for name in ("A1", "A2"):
            a = f1.cid(name)
            got = brute_direct_superclasses(f1.o1, f1.o2, f1.alignment, a)
            assert {c.id for c in got} == {"B1", "C1", "X2"}
            assert brute_cover_count(f1.o1, f1.o2, f1.alignment, a) == 3
            assert has_two_covers(view, a)


# -- randomized cross-checks against the naive closure ----------------------


def _random_instance(rng: random.Random):
    n1 = rng.randint(1, 30)
    n2 = rng.randint(1, 30)
    names1 = [f"a{i}" for i in range(n1)]
    names2 = [f"b{i}" for i in range(n2)]
    edges1 = [(names1[i], names1[rng.randrange(i)]) for i in range(1, n1)
              if rng.random() < 0.8]
    edges2 = [(names2[i], names2[rng.randrange(i)]) for i in range(1, n2)
              if rng.random() < 0.8]
    o1 = build_ontology(1, names1, edges1)
    o2 = build_ontology(2, names2, edges2)
    mappings = []
    seen = set()
    for _ in range(rng.randint(0, 8)):
        s = rng.choice(o1.classes)
        t = rng.choice(o2.classes)
        rel = rng.choice(list(Relation))
        if (s.id, t.id, rel.value) in seen:
            continue
        seen.add((s.id, t.id, rel.value))
        mappings.append(Mapping(s, t, rel, round(rng.random(), 3)))
    return o1, o2, Alignment(mappings)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_coherence_check_matches_brute_closure(seed):
    """build_ontology accepts a coherent input, and otherwise names the
    first disjoint pair in sorted order with its smallest common
    subclass."""
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    names = [f"c{i:02d}" for i in range(n)]
    edges = [
        (names[i], names[rng.randrange(i)])
        for i in range(1, n)
        for _ in range(rng.randint(0, 2))
    ]
    disjoint = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 4))]
    closure = brute_reachable(edges)
    expected = None
    for a, b in sorted({tuple(sorted(p)) for p in disjoint}):
        common = [v for v in names if {a, b} <= closure.get(v, {v})]
        if common:
            expected = (
                f"input ontology incoherent: class {min(common)!r} is subsumed "
                f"by disjoint classes {a!r} and {b!r}"
            )
            break
    if expected is None:
        build_ontology(1, names, edges, disjoint)  # coherent: must not raise
    else:
        with pytest.raises(OntologyError) as info:
            build_ontology(1, names, edges, disjoint)
        assert str(info.value) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=12))))
def test_build_accepts_exactly_the_acyclic_digraphs(graph):
    """A digraph without self-edges is accepted iff no edge closes a
    cycle in the brute closure; then each parent list holds the class's
    distinct parents in ascending order, and `order` puts every parent
    before its children.  Otherwise the error names the smallest class
    on a cycle."""
    n, pairs = graph
    names = [f"c{i}" for i in range(n)]
    edges = [(names[a], names[b]) for a, b in pairs]
    closure = brute_reachable(edges)
    # A class is on a cycle iff one of its edges leads back to it.
    on_cycle = sorted(a for a, b in edges if a in closure[b])
    if not on_cycle:
        onto = build_ontology(1, names, edges)
        # n <= 8, so names[i] sorts to local id i
        assert onto.parents == tuple(
            tuple(sorted({b for a, b in pairs if a == c})) for c in range(n)
        )
        assert sorted(onto.order) == list(range(n))
        position = {v: i for i, v in enumerate(onto.order)}
        for child, ps in enumerate(onto.parents):
            assert all(position[p] < position[child] for p in ps)
        return
    with pytest.raises(OntologyError) as info:
        build_ontology(1, names, edges)
    assert str(info.value) == (
        f"subclass cycle in ontology side 1 (involves {on_cycle[0]!r})"
    )


@settings(max_examples=40, deadline=None)
@given(generated_instances())
def test_ontology_reaches_matches_brute_closure(instance):
    for onto in instance[:2]:
        closure = brute_reachable(list(onto.subclass_edges))
        for a in onto.classes:
            for b in onto.classes:
                expected = a == b or b in closure.get(a, ())
                assert onto_reaches(onto, a, b) == expected, (a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_entails_matches_brute_closure(seed):
    rng = random.Random(seed)
    o1, o2, align = _random_instance(rng)
    view = merged_view(o1, o2, align)
    reach = brute_entails(o1, o2, align)
    classes = list(o1.classes) + list(o2.classes)
    sample = classes if len(classes) <= 12 else rng.sample(classes, 12)
    for a in sample:
        for b in sample:
            assert entails(view, a, b) == reach(a, b), (a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_direct_superclasses_matches_brute_covers(seed):
    """The two-cover test agrees with the brute closure's count of
    covering components."""
    rng = random.Random(seed)
    o1, o2, align = _random_instance(rng)
    view = merged_view(o1, o2, align)
    classes = list(o1.classes) + list(o2.classes)
    for a in rng.sample(classes, min(6, len(classes))):
        expected = brute_cover_count(o1, o2, align, a) >= 2
        assert has_two_covers(view, a) == expected, a


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_removing_a_mapping_never_adds_entailments(seed):
    rng = random.Random(seed)
    o1, o2, align = _random_instance(rng)
    if not len(align):
        return
    view_full = merged_view(o1, o2, align)
    dropped = rng.choice(list(align))
    view_less = merged_view(o1, o2, Alignment(m for m in align if m != dropped))
    classes = list(o1.classes) + list(o2.classes)
    sample = classes if len(classes) <= 10 else rng.sample(classes, 10)
    for a in sample:
        for b in sample:
            if entails(view_less, a, b):
                assert entails(view_full, a, b)


@settings(max_examples=30, deadline=None)
@given(generated_instances(), st.integers(0, 10_000))
def test_global_ids_are_name_order_and_round_trip(instance, seed):
    """Global ids follow sorted ClassId order, with the generator's names
    and with renamed, interleaved ones; every class maps to its global id
    and back through its local id, and lies in one component."""
    for o1, o2, align in (instance, renamed_instance(*instance, seed)):
        view = merged_view(o1, o2, align)
        classes = tuple(map(view.class_at, range(len(view.names))))
        assert classes == tuple(sorted(o1.classes + o2.classes))
        for onto, glob in zip((o1, o2), view.glob):
            for local, c in enumerate(onto.classes):
                g = glob[local]
                assert onto.index[c.id] == local
                assert view.node(c) == g and classes[g] == c
                assert view.locate(g) == (onto.side, local)
        # Every class is a member of exactly one component, and
        # extraction and `component_count` count the same components.
        comp = components(view)
        assert len(comp) == len(classes)
        assert sorted(set(comp)) == list(range(view.component_count))


@settings(max_examples=30, deadline=None)
@given(generated_instances())
def test_view_is_fixed_and_its_child_lists_match_the_oracle(instance):
    """The merged view holds no parent lists and no lazy state: its
    fields are the ones `__init__` sets, and queries leave them as they
    were; its mapping edges are each mapping's `Mapping.edges` by global
    id.  Its merged child lists, which fragment extraction reads, are
    the oracle's merged graph by global id, compared as sets."""
    o1, o2, align = instance
    assert MergedGraph.__slots__ == ("sides", "names", "glob", "down", "disjoint",
                                     "mapping_edges")
    assert not hasattr(MergedGraph, "nodes_below")
    view = merged_view(o1, o2, align)
    fields = [getattr(view, name) for name in MergedGraph.__slots__]
    node = view.node
    edges = {m.key: tuple((node(sub), node(sup)) for sub, sup in m.edges())
             for m in align}
    count_incoherent_classes(view)
    extract_core_fragments(o1, o2, align, view=view)
    repr(view)
    assert all(getattr(view, name) is f
               for name, f in zip(MergedGraph.__slots__, fields))
    assert view.mapping_edges == edges
    downs = [set() for _ in view.names]
    for sup, subs in _merged_adjacency(o1, o2, align).items():
        downs[view.node(sup)].update(map(view.node, subs))
    assert list(map(set, view.merged_child_lists())) == downs


def test_ontology_keeps_only_its_six_fields(f1):
    """An ontology holds its six public fields and nothing built later:
    no cached views, no merged-view ids, no `__dict__` to hide them in."""
    assert Ontology.__slots__ == ("side", "names", "index", "order", "parents",
                                  "disjoint")
    assert not hasattr(f1.o1, "__dict__")
    assert not hasattr(Ontology, "has_class")
    before = [getattr(f1.o1, name) for name in Ontology.__slots__]
    merged_view(f1.o1, f1.o2, f1.alignment)
    f1.o1.classes, f1.o1.subclass_edges, f1.o1.disjointness
    assert all(getattr(f1.o1, name) is f
               for name, f in zip(Ontology.__slots__, before))


def test_model_and_fragments_use_no_cached_property():
    package = Path(alignrepair.model.__file__).parent
    for module in ("model.py", "fragments.py"):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        names = {getattr(n, "id", None) or getattr(n, "attr", None)
                 for n in ast.walk(tree)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "cached_property" not in names, module


@settings(max_examples=60, deadline=None)
@given(generated_instances(), st.data())
def test_one_view_answers_for_every_subset(instance, data):
    """A view's incoherent classes for a subset of its alignment are those
    of a view built for the subset alone, and the exhaustive oracle's."""
    o1, o2, align = instance
    view = merged_view(o1, o2, align)
    keep = data.draw(st.lists(st.booleans(), min_size=len(align), max_size=len(align)))
    subset = [m for m, k in zip(align, keep) if k]
    expected = {view.node(c) for c in exhaustive_incoherence(o1, o2, subset)}
    assert view.incoherent_ids(subset) == expected
    assert MergedGraph(o1, o2, Alignment(subset)).incoherent_ids() == expected


def test_a_mapping_outside_the_view_is_rejected(f1):
    view = merged_view(f1.o1, f1.o2, Alignment([f1.m1]))
    assert view.incoherent_ids([f1.m1]) == view.incoherent_ids() == set()
    for query in (view.incoherent_ids, view.child_lists):
        with pytest.raises(ValueError, match="^mapping 'C1 > A2' is not in the alignment"):
            query([f1.m1, f1.m2])
