"""Checkset and core-fragment extraction, including the subset-equivalence
contract (fragment reachability == full reachability for every mapping
subset) that everything downstream relies on."""

import dataclasses
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings

import alignrepair.fragments
import alignrepair.model
from alignrepair import (
    Alignment,
    CoreFragments,
    Mapping,
    Relation,
    analyze,
    build_ontology,
    compute_checkset,
    extract_core_fragments,
    find_conflict_sets,
    fragments_incoherent,
    merged_view,
    repair_alignment,
    write_alignment_tsv,
    write_ontology_file,
)
from alignrepair.cli import cli_dispatch
from alignrepair.fragments import ReducedEdge
from alignrepair.generator import GeneratorParams, generate_instance

from conftest import (
    brute_entails,
    brute_reachable,
    checkset_classes,
    core_pairs,
    generated_instances,
    merged_edge_list,
    renamed_instance,
)


def fragment_entails(frags, subset, a, b):
    """Reachability over the reduced edges plus a mapping subset's edges,
    as the merged view resolved them."""
    src, dst = frags._require(a), frags._require(b)
    up = {}
    for child, parent in frags.edges:
        up.setdefault(child, []).append(parent)
    for m in subset:
        for u, v in frags.view.edges_of(m):
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
        with pytest.raises(ValueError, match="core"):
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
    expected.update(c for onto in (o1, o2) for pair in onto.disjointness for c in pair)
    assert list(frags.start_classes) == sorted(expected)


def test_one_component_pass_per_analysis(f1, tmp_path, monkeypatch, capsys):
    """Fragment extraction runs Tarjan once, and nothing else in an
    analysis does; counting incoherent classes, in the library and in
    `check`, runs it not at all."""
    calls = []
    for module in (alignrepair.fragments, alignrepair.model):
        def counted(n, adj, real=module.tarjan_scc):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(module, "tarjan_scc", counted)
    analyze(f1.o1, f1.o2, f1.alignment)
    assert len(calls) == 1
    calls.clear()
    assert merged_view(f1.o1, f1.o2, f1.alignment).incoherent_ids()
    files = {"o1.txt": write_ontology_file(f1.o1),
             "o2.txt": write_ontology_file(f1.o2),
             "align.tsv": write_alignment_tsv(f1.alignment)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli_dispatch(["check", "--onto1", str(tmp_path / "o1.txt"),
                         "--onto2", str(tmp_path / "o2.txt"),
                         "--align", str(tmp_path / "align.tsv")]) == 0
    assert capsys.readouterr().out.startswith("2\n")
    assert calls == []


def test_a_repair_run_builds_the_pair_ids_once(f1, tmp_path, monkeypatch, capsys):
    """A repair run builds one merged view, which numbers the pair's
    classes and verifies the repair too, in the library and in
    `alignrepair repair`."""
    views = []

    def counted_view(self, o1, o2, alignment, real=alignrepair.model.MergedGraph.__init__):
        views.append(1)
        real(self, o1, o2, alignment)

    monkeypatch.setattr(alignrepair.model.MergedGraph, "__init__", counted_view)
    run = repair_alignment(f1.o1, f1.o2, f1.alignment)
    assert (len(views), run.incoherent_after) == (1, 0)
    views.clear()
    files = {"o1.txt": write_ontology_file(f1.o1),
             "o2.txt": write_ontology_file(f1.o2),
             "align.tsv": write_alignment_tsv(f1.alignment)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli_dispatch(["repair", "--onto1", str(tmp_path / "o1.txt"),
                         "--onto2", str(tmp_path / "o2.txt"),
                         "--align", str(tmp_path / "align.tsv"),
                         "--out", str(tmp_path / "out.tsv")]) == 0
    capsys.readouterr()
    assert len(views) == 1


def test_fragments_keep_only_their_fields(f1):
    """Conflict search, the incoherence test and the ClassId views leave
    a `CoreFragments` holding its dataclass fields and nothing else."""
    frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
    find_conflict_sets(frags, (), f1.alignment)
    fragments_incoherent(frags, f1.alignment)
    frags.core_classes, frags.reduced_edges, frags.start_classes
    assert set(vars(frags)) == {f.name for f in dataclasses.fields(CoreFragments)}
    assert frags == dataclasses.replace(frags, radj={}, view=None)


def test_extraction_with_a_view_resolves_no_class(f1, monkeypatch):
    """Given a view, extraction reads the mapping endpoints from its
    mapping edges and walks each side on local ids: it never resolves a
    `ClassId` or locates a global id, and it finds what extraction
    without a view finds.  Conflict search and the fragment incoherence
    test read each mapping's edges as the view resolved them, so they
    resolve no `ClassId` either.  The renamed instance interleaves the
    two sides in global-id order."""
    generated = generate_instance(GeneratorParams(40, 12, 3, 0.4, 5, 6, 2.0))[:3]
    cases = [(f1.o1, f1.o2, f1.alignment), renamed_instance(*generated, 1)]

    def fields(f):
        return f.core, f.edges, f.starts, f.checkset, f.radj

    def forbidden(*args):
        raise AssertionError("resolved a class")

    for o1, o2, align in cases:
        expected = fields(extract_core_fragments(o1, o2, align))
        view = merged_view(o1, o2, align)
        with monkeypatch.context() as m:
            m.setattr(alignrepair.model.MergedGraph, "node", forbidden)
            with monkeypatch.context() as extracting:
                extracting.setattr(alignrepair.model.MergedGraph, "locate", forbidden)
                frags = extract_core_fragments(o1, o2, align, view=view)
            conflicts = find_conflict_sets(frags, (), align)
            incoherent = fragments_incoherent(frags, align)
        assert fields(frags) == expected
        assert frags.view is view
        assert incoherent == bool(len(conflicts)) == bool(view.incoherent_ids())
        sides = [view.locate(g)[0] for g in frags.core]
        assert sum(a != b for a, b in zip(sides, sides[1:])) >= 2
