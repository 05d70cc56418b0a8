"""Checkset and core-fragment extraction, including the subset-equivalence
contract (fragment reachability == full reachability for every mapping
subset) that everything downstream relies on."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings

from alignrepair import (
    Alignment,
    FragmentError,
    Mapping,
    Relation,
    build_ontology,
    compute_checkset,
    extract_core_fragments,
    fragments_incoherent,
    merged_view,
)
from alignrepair.fragments import ReducedEdge

from conftest import (
    brute_entails,
    brute_reachable,
    checkset_classes,
    core_pairs,
    generated_instances,
    merged_edge_list,
)


def fragment_entails(frags, subset, a, b):
    """Reachability over the reduced edges plus a mapping subset's edges."""
    src, dst = frags._require(a), frags._require(b)
    up = {}
    for e in frags.reduced_edges:
        up.setdefault(frags._require(e.child), []).append(frags._require(e.parent))
    for u, v in frags.subset_edges(subset):
        up.setdefault(u, []).append(v)
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in up.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return dst in seen


class TestComputeCheckset:
    def test_f3_keeps_only_lowest_multiparent(self, f3):
        o2 = build_ontology(2, ["z"])
        view = merged_view(f3, o2, Alignment())
        cs = compute_checkset(view)
        assert {c.id for c in cs} == {"E"}

    def test_chain_is_empty(self):
        o1 = build_ontology(1, ["A", "B", "C"], [("A", "B"), ("B", "C")])
        o2 = build_ontology(2, ["z"])
        assert len(compute_checkset(merged_view(o1, o2, Alignment()))) == 0

    def test_f1_full_includes_whole_component(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        cs = compute_checkset(view)
        assert {c.id for c in cs} == {"A1", "A2"}


class TestExtractCoreFragments:
    def test_f1_core_and_reduction(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        assert {c.id for c in frags.core_classes} == {"A1", "A2", "B1", "C1"}
        assert [(e.child.id, e.parent.id) for e in frags.reduced_edges] == [
            ("A1", "B1")
        ]
        # A direct ontology edge, not a path through a dropped class.
        assert tuple(frags.reduced_edges[0]) in f1.o1.subclass_edges

    def test_intermediate_class_dropped_edge_collapsed(self):
        # A <= X <= B with X not core: reduced edge A -> B abbreviates a path
        o1 = build_ontology(
            1, ["A", "X", "B", "C"], [("A", "X"), ("X", "B")], [("B", "C")]
        )
        o2 = build_ontology(2, ["A2"])
        m = Mapping(o1.class_id("A"), o2.class_id("A2"), Relation.EQUIVALENCE, 0.8)
        align = Alignment([m])
        frags = extract_core_fragments(o1, o2, align)
        assert {c.id for c in frags.core_classes} == {"A", "B", "C", "A2"}
        edges = [(e.child.id, e.parent.id) for e in frags.reduced_edges]
        assert edges == [("A", "B")]
        assert tuple(frags.reduced_edges[0]) not in o1.subclass_edges

    def test_chains_with_nothing_to_check_are_empty(self):
        o1 = build_ontology(1, ["A", "B"], [("A", "B")])
        o2 = build_ontology(2, ["Y", "Z"], [("Y", "Z")])
        frags = extract_core_fragments(o1, o2, Alignment())
        assert frags.core_classes == ()
        assert frags.reduced_edges == ()
        assert frags.start_classes == ()

    def test_core_contains_all_condition_classes(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        core = set(frags.core_classes)
        for a, b in core_pairs(frags):
            assert a in core and b in core
        for m in f1.alignment:
            assert m.source in core and m.target in core
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        checkset = checkset_classes(frags)
        assert checkset == compute_checkset(view)
        assert set(checkset) <= set(frags.start_classes)
        for c in checkset:
            assert c in core


class TestFragmentEntails:
    def test_f1_with_and_without_m1(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        assert fragment_entails(frags, [f1.m1], f1.cid("A2"), f1.cid("B1"))
        assert not fragment_entails(frags, [], f1.cid("A2"), f1.cid("B1"))

    def test_reflexive(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        a2 = f1.cid("A2")
        assert fragment_entails(frags, [], a2, a2)

    def test_non_core_class_rejected(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        with pytest.raises(FragmentError, match="core"):
            fragment_entails(frags, [], f1.cid("D1"), f1.cid("B1"))


class TestShadowedDivergence:
    """Mappings outside a subset can hide a class's second direct parent,
    so the checkset alone is not a sufficient start set.  The start
    classes must still expose the conflict of the plain subset."""

    @pytest.fixture
    def instance(self):
        o1 = build_ontology(
            1,
            ["B1", "C1", "P1", "Q1", "W1"],
            [("P1", "B1"), ("Q1", "C1")],
            [("B1", "C1")],
        )
        o2 = build_ontology(2, ["X2", "U2", "V2"], [("X2", "U2"), ("X2", "V2")])
        m1 = Mapping(o1.class_id("P1"), o2.class_id("U2"), Relation.SUBSUMES, 0.9)
        m2 = Mapping(o1.class_id("Q1"), o2.class_id("V2"), Relation.SUBSUMES, 0.8)
        m4 = Mapping(o1.class_id("W1"), o2.class_id("U2"), Relation.SUBSUMES, 0.7)
        m5 = Mapping(o1.class_id("W1"), o2.class_id("V2"), Relation.SUBSUMED_BY, 0.6)
        return o1, o2, Alignment([m1, m2, m4, m5]), (m1, m2)

    def test_checkset_misses_the_shadowed_class(self, instance):
        o1, o2, align, _ = instance
        view = merged_view(o1, o2, align)
        assert {c.id for c in compute_checkset(view)} == {"U2"}

    def test_start_classes_include_it(self, instance):
        o1, o2, align, _ = instance
        frags = extract_core_fragments(o1, o2, align)
        assert "X2" in {c.id for c in frags.start_classes}

    def test_subset_incoherence_detected_on_fragments(self, instance):
        o1, o2, align, (m1, m2) = instance
        frags = extract_core_fragments(o1, o2, align)
        assert fragments_incoherent(frags, [m1, m2])
        assert not fragments_incoherent(frags, [m1])
        assert not fragments_incoherent(frags, [m2])


# -- subset-equivalence property --------------------------------------------


def _random_instance(rng: random.Random):
    n1 = rng.randint(2, 25)
    n2 = rng.randint(2, 25)
    names1 = [f"a{i}" for i in range(n1)]
    names2 = [f"b{i}" for i in range(n2)]
    edges1 = [(names1[i], names1[rng.randrange(i)]) for i in range(1, n1)]
    edges2 = [(names2[i], names2[rng.randrange(i)]) for i in range(1, n2)]
    # a couple of extra parents to produce multi-parent classes
    for names, edges in ((names1, edges1), (names2, edges2)):
        for _ in range(rng.randint(0, 3)):
            child = rng.randrange(1, len(names))
            parent = rng.randrange(0, child)
            if (names[child], names[parent]) not in edges:
                edges.append((names[child], names[parent]))
    disjoint1 = []
    for _ in range(rng.randint(0, 2)):
        x, y = rng.sample(range(n1), 2)
        disjoint1.append((names1[x], names1[y]))
    try:
        o1 = build_ontology(1, names1, edges1, disjoint1)
    except Exception:
        o1 = build_ontology(1, names1, edges1, [])
    o2 = build_ontology(2, names2, edges2, [])
    mappings = []
    seen = set()
    for _ in range(rng.randint(1, 7)):
        s = rng.choice(o1.classes)
        t = rng.choice(o2.classes)
        rel = rng.choice(list(Relation))
        if (s.id, t.id, rel.value) in seen:
            continue
        seen.add((s.id, t.id, rel.value))
        mappings.append(Mapping(s, t, rel, round(rng.random(), 3)))
    return o1, o2, Alignment(mappings)


def test_start_classes_witness_every_incoherent_subset():
    """Whenever a mapping subset is incoherent, some search entry point
    (start class or disjointness endpoint) is itself incoherent on the
    fragments plus that subset; this is what conflict enumeration's
    completeness rests on."""
    incoherent_seen = 0
    for seed in range(80):
        rng = random.Random(4_000 + seed)
        o1, o2, align = _random_instance(rng)
        if not (o1.disjointness or o2.disjointness):
            continue
        frags = extract_core_fragments(o1, o2, align)
        pairs = core_pairs(frags)
        entry = set(frags.start_classes) | {c for pair in pairs for c in pair}
        maps = list(align)
        subsets = [
            list(c)
            for r in range(len(maps) + 1)
            for c in itertools.combinations(maps, r)
        ]
        for subset in subsets:
            full = brute_entails(o1, o2, subset)
            incoherent = any(
                full(x, a) and full(x, b)
                for a, b in pairs
                for x in list(o1.classes) + list(o2.classes)
            )
            if not incoherent:
                continue
            incoherent_seen += 1
            witness = any(
                fragment_entails(frags, subset, s, a)
                and fragment_entails(frags, subset, s, b)
                for a, b in pairs
                for s in entry
            )
            assert witness, (seed, [m.key for m in subset])
    assert incoherent_seen > 50


def test_fragment_reachability_equals_full_for_every_subset():
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        o1, o2, align = _random_instance(rng)
        frags = extract_core_fragments(o1, o2, align)
        core = list(frags.core_classes)
        if not core:
            continue
        maps = list(align)
        subsets = [
            list(c)
            for r in range(len(maps) + 1)
            for c in itertools.combinations(maps, r)
        ]
        if len(subsets) > 24:
            subsets = [subsets[0], subsets[-1]] + [
                [m for m in maps if rng.random() < 0.5] for _ in range(10)
            ]
        for subset in subsets:
            reach = brute_entails(o1, o2, subset)
            pairs = (
                [(a, b) for a in core for b in core]
                if len(core) <= 8
                else [
                    (rng.choice(core), rng.choice(core)) for _ in range(30)
                ]
            )
            for a, b in pairs:
                assert fragment_entails(frags, subset, a, b) == reach(a, b)
                checked += 1
    assert checked > 1000


# -- reduced edges against the quadratic covering relation -------------------


def _covering_edges(onto, core):
    """Every (a, b) of core classes of one side with a strictly below b
    and no core class strictly between, found by comparing all pairs."""
    closure = brute_reachable(list(onto.subclass_edges))
    side_core = [c for c in core if c.side == onto.side]

    def below(a, b):
        return a != b and b in closure.get(a, ())

    return [
        ReducedEdge(a, b)
        for a in side_core
        for b in side_core
        if below(a, b) and not any(below(a, k) and below(k, b) for k in side_core)
    ]


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_reduced_edges_equal_the_covering_relation(instance):
    o1, o2, produced = instance
    frags = extract_core_fragments(o1, o2, produced)
    expected = sorted(
        _covering_edges(o1, frags.core_classes) + _covering_edges(o2, frags.core_classes),
        key=lambda e: (e.child, e.parent),
    )
    assert list(frags.reduced_edges) == expected


# -- checkset and start classes against their definitions -------------------


def _brute_checkset(o1, o2, mappings):
    """Multi-cover classes of the merged graph with no multi-cover class
    strictly below them, found by comparing all pairs.

    Two classes share a component iff they reach the same classes, so a
    class's covering components are its covers grouped by that set.
    """
    closure = brute_reachable(merged_edge_list(o1, o2, mappings))
    classes = list(o1.classes) + list(o2.classes)

    def up(a):
        return closure.get(a, {a})

    def strictly_below(a, b):
        return b in up(a) and a not in up(b)

    multi = set()
    for a in classes:
        above = [b for b in up(a) if strictly_below(a, b)]
        covers = [
            b for b in above if not any(strictly_below(c, b) for c in above)
        ]
        if len({frozenset(up(b)) for b in covers}) >= 2:
            multi.add(a)
    return sorted(
        a for a in multi if not any(strictly_below(x, a) for x in multi)
    )


def _brute_divergence_starts(o1, o2, mappings):
    """Classes with two distinct merged-graph successors, minus those
    with another such class strictly below them in their own ontology."""
    successors = {}
    for a, b in merged_edge_list(o1, o2, mappings):
        successors.setdefault(a, set()).add(b)
    kept = []
    for onto in (o1, o2):
        closure = brute_reachable(list(onto.subclass_edges))
        candidates = [c for c in onto.classes if len(successors.get(c, ())) >= 2]
        kept.extend(
            c
            for c in candidates
            if not any(d != c and c in closure.get(d, ()) for d in candidates)
        )
    return kept


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_checkset_matches_its_definition(instance):
    o1, o2, produced = instance
    view = merged_view(o1, o2, produced)
    assert list(compute_checkset(view)) == _brute_checkset(o1, o2, produced)


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_start_classes_match_the_divergence_pruning(instance):
    o1, o2, produced = instance
    frags = extract_core_fragments(o1, o2, produced)
    expected = set(_brute_checkset(o1, o2, produced))
    expected.update(_brute_divergence_starts(o1, o2, produced))
    assert list(frags.start_classes) == sorted(expected)
