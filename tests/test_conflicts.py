"""Conflict enumeration: pinned fixtures plus randomized soundness,
minimality, and completeness checks against exhaustive subset search."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alignrepair import (
    Alignment,
    ClassId,
    ConflictList,
    ConflictSet,
    EnumerationCapExceeded,
    Mapping,
    Relation,
    analyze,
    build_ontology,
    count_incoherent_classes,
    exhaustive_incoherence,
    extract_core_fragments,
    find_conflict_sets,
    fragments_incoherent,
    merged_view,
    repair,
)

from alignrepair.conflicts import (
    SearchWork,
    contains_conflict,
    disjoint_conflict_clusters,
)
from alignrepair.generator import GeneratorParams, generate_instance
from alignrepair.graphs import iter_bits

from conftest import (
    PAIR,
    antichain,
    checkset_classes,
    clusters_of,
    core_pairs,
    generated_instances,
    mk_mapping,
    mk_set,
)
from instances import INSTANCES


def _enumerate(o1, o2, align, **kw):
    frags = extract_core_fragments(o1, o2, align)
    return find_conflict_sets(frags, checkset_classes(frags), align, **kw)


class TestFindConflictSets:
    def test_f1_single_conflict(self, f1):
        conflicts = _enumerate(f1.o1, f1.o2, f1.alignment)
        assert len(conflicts) == 1
        only = conflicts[0]
        assert only.mappings == {f1.m1, f1.m2}
        assert only.witness_class.id in ("A1", "A2")
        assert {c.id for c in only.witness_pair} == {"B1", "C1"}

    def test_f1_without_m2_is_clean(self, f1):
        conflicts = _enumerate(f1.o1, f1.o2, Alignment([f1.m1]))
        assert len(conflicts) == 0

    @pytest.fixture
    def two_routes(self):
        o1 = build_ontology(1, ["B1", "C1"], [], [("B1", "C1")])
        o2 = build_ontology(2, ["A2", "Y2"], [("A2", "Y2")])
        m1 = Mapping(o1.class_id("B1"), o2.class_id("A2"), Relation.SUBSUMES, 0.9)
        m2 = Mapping(o1.class_id("C1"), o2.class_id("A2"), Relation.SUBSUMES, 0.8)
        m3 = Mapping(o1.class_id("C1"), o2.class_id("Y2"), Relation.SUBSUMES, 0.7)
        return o1, o2, (m1, m2, m3)

    def test_two_routes_two_sets(self, two_routes):
        o1, o2, (m1, m2, m3) = two_routes
        align = Alignment([m1, m2, m3])
        conflicts = _enumerate(o1, o2, align)
        contents = {frozenset(m.key for m in s.mappings) for s in conflicts}
        assert contents == {
            frozenset({m1.key, m2.key}),
            frozenset({m1.key, m3.key}),
        }

    def test_witness_is_the_smallest_start_over_all_pairs(self):
        # u < y2 < v puts wz under (b, c) and wa under (d, e).  The pair
        # (b, c) comes first, but wa < wz, so (wa, (d, e)) is recorded.
        o1 = build_ontology(
            1,
            ["b", "c", "d", "e", "u", "v", "wa", "wz"],
            [("wa", "d"), ("wa", "u"), ("wz", "b"), ("wz", "u"),
             ("v", "c"), ("v", "e")],
            [("b", "c"), ("d", "e")],
        )
        o2 = build_ontology(2, ["y2"])
        m1 = Mapping(o1.class_id("u"), o2.class_id("y2"), Relation.SUBSUMED_BY)
        m2 = Mapping(o1.class_id("v"), o2.class_id("y2"), Relation.SUBSUMES)
        (only,) = _enumerate(o1, o2, Alignment([m1, m2]))
        assert only.witness_class.id == "wa"
        assert [c.id for c in only.witness_pair] == ["d", "e"]

    def test_no_disjointness_means_no_conflicts(self):
        o1 = build_ontology(1, ["A1"], [])
        o2 = build_ontology(2, ["A2"], [])
        m = Mapping(o1.class_id("A1"), o2.class_id("A2"), Relation.EQUIVALENCE)
        assert len(_enumerate(o1, o2, Alignment([m]))) == 0

    def test_mapping_off_the_core_is_rejected(self, f1):
        frags = extract_core_fragments(f1.o1, f1.o2, f1.alignment)
        a2 = f1.o2.class_id("A2")
        for source in (f1.o1.class_id("D1"), ClassId("Z1", 1)):
            extra = Mapping(source, a2, Relation.EQUIVALENCE)
            with pytest.raises(ValueError, match="not in the alignment the "
                               "fragments were extracted from"):
                find_conflict_sets(frags, (), Alignment([f1.m1, f1.m2, extra]))

    def test_mapping_on_the_core_but_not_extracted_is_rejected(self):
        """Fragments hold for their alignment and its subsets only.  Here
        a new mapping joins two core classes, yet the fragments of the
        old alignment, searched with it, miss a two-mapping conflict that
        the new alignment's own fragments find: both readers refuse it."""
        o1, o2, produced, _ = generate_instance(
            GeneratorParams(53, 26, 4, 0.5, 17, 6, 2.0))
        frags = extract_core_fragments(o1, o2, produced)
        extra = Mapping(o1.class_id("a0031"), o2.class_id("b0021"),
                        Relation.SUBSUMES, 0.5)
        core = set(frags.core)
        assert {frags.view.node(c) for c in (extra.source, extra.target)} <= core
        extended = Alignment([*produced, extra])
        message = "'a0031 > b0021' is not in the alignment"
        with pytest.raises(ValueError, match=message):
            find_conflict_sets(frags, (), extended)
        with pytest.raises(ValueError, match=message):
            fragments_incoherent(frags, extended)
        own = _enumerate(o1, o2, extended)
        assert any(len(s) == 2 and extra in s.mappings for s in own)

    def test_cap_is_enforced(self, f1):
        with pytest.raises(EnumerationCapExceeded):
            _enumerate(f1.o1, f1.o2, f1.alignment, max_work=1)

    def test_cap_bounds_the_total_work(self, two_routes):
        # The search into B1 inserts 1 label set, the one into C1 inserts
        # 3, and witness A2 pairs 1 x 2 of them: 6 steps in all.  Each
        # part fits in 3 steps, their sum does not.
        o1, o2, mappings = two_routes
        align = Alignment(mappings)
        for max_work in (3, 5):
            with pytest.raises(EnumerationCapExceeded):
                _enumerate(o1, o2, align, max_work=max_work)
        assert len(_enumerate(o1, o2, align, max_work=6)) == 2

    def test_cap_message_names_the_class(self, two_routes):
        # Both searches settle their empty sets for free; B1's {m1} at A2
        # takes the one step, and C1's {m2} at A2 trips the cap.
        o1, o2, mappings = two_routes
        with pytest.raises(
            EnumerationCapExceeded,
            match=r"^label-set search into C1 exhausts the budget of 1 steps$",
        ):
            _enumerate(o1, o2, Alignment(mappings), max_work=1)
        with pytest.raises(
            EnumerationCapExceeded,
            match=r"^witness \(A2, B1\|C1\) exhausts the budget of 2 steps",
        ):
            _enumerate(o1, o2, Alignment(mappings), max_work=2)

    def test_the_ledger_is_the_work_and_equality_ignores_it(self, two_routes):
        # The steps of test_cap_bounds_the_total_work: 4 settled sets and
        # 2 unions.  A list built from the same sets has an empty ledger.
        o1, o2, mappings = two_routes
        conflicts = _enumerate(o1, o2, Alignment(mappings))
        assert conflicts.work == SearchWork(settled=4, unions=2, pruned=0)
        rebuilt = ConflictList(conflicts)
        assert rebuilt == conflicts
        assert rebuilt.work == SearchWork(0, 0, 0)

    def test_noisy_instance_within_the_default_cap(self):
        # Run one endpoint at a time and without conflict pruning, the
        # label searches exhaust the default cap of 1,000,000 steps here.
        params = GeneratorParams(29, 27, 3, 0.8700101551766398, 9338, 9, 1.15)
        o1, o2, align, _ = generate_instance(params)
        conflicts = _enumerate(o1, o2, align)
        assert len(conflicts) > 0
        assert conflicts == _enumerate(o1, o2, align, max_work=5_000)
        for s in conflicts:
            assert s.witness_class in exhaustive_incoherence(o1, o2, s.mappings)
            for m in s.mappings:
                assert not exhaustive_incoherence(o1, o2, s.mappings - {m})
        assert not exhaustive_incoherence(o1, o2, repair(conflicts, align).kept)


def test_the_ledger_on_s_and_m(m_instance):
    """ROADMAP item 23's counts (settled / unions / pruned), as
    `analyze` returns them on its conflict list."""
    o1, o2, produced, _ = generate_instance(GeneratorParams(*INSTANCES["S"].fields))
    assert analyze(o1, o2, produced).conflicts.work == SearchWork(324, 19, 0)
    assert m_instance[3].conflicts.work == SearchWork(9_168, 1_676, 314)


@settings(max_examples=200, deadline=None)
@given(generated_instances())
def test_the_cap_charges_exactly_the_ledger(instance):
    """A cap of `settled + unions` steps lets the search finish with the
    same list and the same ledger; one step less trips it."""
    o1, o2, align = instance
    frags = extract_core_fragments(o1, o2, align)
    try:
        conflicts = find_conflict_sets(frags, (), align, max_work=20_000)
    except EnumerationCapExceeded:
        assume(False)
    work = conflicts.work
    steps = work.settled + work.unions
    again = find_conflict_sets(frags, (), align, max_work=steps)
    assert again == conflicts
    assert again.work == work
    if steps:
        with pytest.raises(EnumerationCapExceeded):
            find_conflict_sets(frags, (), align, max_work=steps - 1)


def _insert_minimal(masks, new):
    """Insert into an antichain of bitmasks; drop dominated entries.

    Returns False when an existing mask is a subset of `new`.
    """
    for m in masks:
        if m & new == m:
            return False
    masks[:] = [m for m in masks if new & m != new]
    masks.append(new)
    return True


def _pareto_label_search(adj, start, budget):
    """Minimal mapping-label sets of walks from `start` to every node, and
    the budget left after one step per inserted label set: the engine's
    per-endpoint search before the searches ran together by size."""
    states = {start: [0]}
    queue = deque([(start, 0)])
    while queue:
        u, mask = queue.popleft()
        live = states.get(u)
        if live is None or mask not in live:
            continue
        for v, label in adj[u]:
            nm = mask | (1 << label) if label >= 0 else mask
            if _insert_minimal(states.setdefault(v, []), nm):
                budget -= 1
                if budget < 0:
                    raise EnumerationCapExceeded("reference label search")
                queue.append((v, nm))
    return states, budget


def _start_pair_reference(fragments, checkset, alignment, max_work):
    """The witness loop over every (start class, disjoint pair), as
    `find_conflict_sets` ran it before only start nodes in both endpoints'
    label maps were tried, on ClassIds and a node-index dict.  Returns the
    conflicts and the steps spent, counted as the engine counted them
    then: every inserted label set and every path pair of a witness."""
    pairs = core_pairs(fragments)
    if not pairs or not len(alignment):
        return ConflictList(), 0
    mappings = sorted(alignment, key=lambda m: m.key)
    node_of = {c: i for i, c in enumerate(fragments.core_classes)}
    radj = [[] for _ in node_of]
    for e in fragments.reduced_edges:
        radj[node_of[e.parent]].append((node_of[e.child], -1))
    for mi, m in enumerate(mappings):
        for sub, sup in m.edges():
            radj[node_of[sup]].append((node_of[sub], mi))
    states_to = {}
    budget = max_work
    for e in sorted({node_of[c] for pair in pairs for c in pair}):
        states_to[e], budget = _pareto_label_search(radj, e, budget)
    start_classes = sorted(
        set(fragments.start_classes)
        | set(checkset)
        | {c for pair in pairs for c in pair}
    )
    found = {}
    for start in start_classes:
        s_idx = node_of[start]
        for pair in pairs:
            sets_a = states_to[node_of[pair[0]]].get(s_idx)
            if not sets_a:
                continue
            sets_b = states_to[node_of[pair[1]]].get(s_idx)
            if not sets_b:
                continue
            budget -= len(sets_a) * len(sets_b)
            if budget < 0:
                raise EnumerationCapExceeded("reference path pairs")
            witness_masks = []
            for ma in sets_a:
                for mb in sets_b:
                    _insert_minimal(witness_masks, ma | mb)
            for mask in witness_masks:
                if mask and mask not in found:
                    found[mask] = (start, pair)
    minimal = [
        mask for mask in found
        if not any(k != mask and k & mask == k for k in found)
    ]
    conflicts = ConflictList(
        ConflictSet(
            frozenset(mappings[i] for i in iter_bits(mask)), *found[mask]
        )
        for mask in minimal
    )
    return conflicts, max_work - budget


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_witnesses_match_the_start_pair_loop(instance):
    """Same minimal masks, each with the smallest (start class, pair)
    witness in start-class order, then pair order."""
    o1, o2, align = instance
    frags = extract_core_fragments(o1, o2, align)
    checkset = checkset_classes(frags)
    try:
        got = find_conflict_sets(frags, checkset, align, max_work=20_000)
        expected, _ = _start_pair_reference(frags, checkset, align, 20_000)
    except EnumerationCapExceeded:
        assume(False)
    assert got == expected
    assert got == find_conflict_sets(frags, checkset, align)


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_no_input_needs_more_steps_than_the_old_search(instance):
    """The size-ordered search settles a subset of the label sets the
    per-endpoint searches inserted, and pairs a subset of their path
    pairs, so the steps the old search spent always suffice.  The
    reference is capped as in the test above: its antichain scans make a
    draw that runs to 200,000 steps take half a minute."""
    o1, o2, align = instance
    frags = extract_core_fragments(o1, o2, align)
    checkset = checkset_classes(frags)
    try:
        expected, steps = _start_pair_reference(frags, checkset, align, 20_000)
    except EnumerationCapExceeded:
        assume(False)
    assert find_conflict_sets(frags, checkset, align, max_work=steps) == expected


@pytest.mark.parametrize("params, minimal", [
    # The search records 43 masks here, and 8 in the second instance.
    (GeneratorParams(20, 14, 6, 0.9709049491616738, 29245, 9, 3.0), 41),
    (GeneratorParams(34, 12, 5, 0.5019999905675694, 888508, 10, 2.0), 6),
])
def test_non_minimal_recorded_masks_are_dropped(params, minimal):
    """Some recorded masks here contain a conflict found after them, so
    only the final filter of `find_conflict_sets` keeps the output an
    antichain: `ConflictList` does not prune."""
    o1, o2, align, _ = generate_instance(params)
    conflicts = analyze(o1, o2, align).conflicts
    assert len(conflicts) == minimal
    assert not any(a.mappings < b.mappings for a in conflicts for b in conflicts)
    frags = extract_core_fragments(o1, o2, align)
    checkset = checkset_classes(frags)
    expected, _ = _start_pair_reference(frags, checkset, align, 1_000_000)
    assert conflicts == expected


def test_two_mapping_precheck_spares_containment_tests(m_instance, monkeypatch):
    """A union that holds a found two-mapping conflict, and is not that
    conflict, skips `contains_conflict`.  The outputs cannot show the
    precheck, so count the containment tests of one search: on ROADMAP
    C2 it spares about 90% of them (849,168 without it), on M a few
    (11,611 without it).  C2's ledger is pinned with it: nearly every
    union there holds a found conflict."""
    _, _, produced, analysis = m_instance
    o1, o2, c2, _ = generate_instance(GeneratorParams(*INSTANCES["C2"].fields))
    searches = [
        (analysis.fragments, produced, 472, 11_302,
         SearchWork(9_168, 1_676, 314)),
        (extract_core_fragments(o1, o2, c2), c2, 552, 97_748,
         SearchWork(92_027, 753_098, 751_752)),
    ]
    tests = 0

    def counted(mask, by_low):
        nonlocal tests
        tests += 1
        return contains_conflict(mask, by_low)

    monkeypatch.setattr("alignrepair.conflicts.contains_conflict", counted)
    for fragments, alignment, sets, expected, work in searches:
        tests = 0
        conflicts = find_conflict_sets(fragments, (), alignment)
        assert len(conflicts) == sets
        assert tests == expected
        assert conflicts.work == work


def _engine_pruning(sets):
    """The family pruned by the rule `find_conflict_sets` applies to its
    recorded masks, then deduplicated by `ConflictList`."""
    mappings = sorted({m.key for s in sets for m in s.mappings})
    bit = {k: 1 << i for i, k in enumerate(mappings)}
    mask_of = {s.key: sum(bit[m.key] for m in s.mappings) for s in sets}
    by_low = {}
    for mask in set(mask_of.values()):
        by_low.setdefault(mask & -mask, []).append(mask)
    return ConflictList(
        s for s in sets if not contains_conflict(mask_of[s.key], by_low)
    )


class TestConflictListInvariants:
    def test_duplicates_merged_and_supersets_dropped(self):
        m1, m2, m3 = mk_mapping(1), mk_mapping(2), mk_mapping(3)
        small = mk_set(m1)
        dup = mk_set(m1)
        superset = mk_set(m1, m2)
        other = mk_set(m2, m3)
        cl = _engine_pruning([superset, dup, small, other])
        contents = [frozenset(m.key for m in s.mappings) for s in cl]
        assert contents == sorted(
            [frozenset({m1.key}), frozenset({m2.key, m3.key})],
            key=lambda s: sorted(s),
        )

    def test_canonical_order(self):
        m1, m2, m3 = mk_mapping(1), mk_mapping(2), mk_mapping(3)
        cl = ConflictList([mk_set(m2, m3), mk_set(m1, m3)])
        assert [s.key for s in cl] == sorted(s.key for s in cl)

    def test_masks_name_the_sets_in_key_order(self):
        m1, m2, m3, m4 = (mk_mapping(i) for i in (1, 2, 3, 4))
        cl = ConflictList([mk_set(m4, m2), mk_set(m1, m3), mk_set(m3, m4)])
        assert cl.mappings == (m1, m2, m3, m4)
        assert cl.masks == (0b0101, 0b1010, 0b1100)


_MAPPINGS = [mk_mapping(i) for i in range(6)]
_WITNESSES = [ClassId(f"w{i}", 1) for i in range(3)]
_conflict_sets = st.builds(
    lambda members, w: ConflictSet(
        frozenset(_MAPPINGS[i] for i in members), _WITNESSES[w], PAIR
    ),
    st.sets(st.integers(0, len(_MAPPINGS) - 1), min_size=1, max_size=4),
    st.integers(0, len(_WITNESSES) - 1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_conflict_sets, max_size=14))
def test_pruning_matches_pairwise_reference(sets):
    """Duplicates (with other witnesses) and nested sets are frequent in
    families of up to 14 sets over 6 mappings.  The sets are non-empty:
    the engine never records mask 0, since an ontology that is
    incoherent on its own is rejected when it is built."""
    assert _engine_pruning(sets).sets == antichain(sets)


@settings(max_examples=200, deadline=None)
@given(st.lists(_conflict_sets, max_size=14))
def test_masks_match_the_sets(sets):
    """`mappings` is the union of the sets' mappings in key order, bit i
    of a mask stands for `mappings[i]`, and ascending bit tuples order
    the masks as the keys order the sets."""
    cl = ConflictList(antichain(sets))
    assert [m.key for m in cl.mappings] == sorted({m.key for s in cl for m in s.mappings})
    assert [{cl.mappings[i] for i in iter_bits(mask)} for mask in cl.masks] == [
        set(s.mappings) for s in cl
    ]
    bit_tuples = [tuple(iter_bits(mask)) for mask in cl.masks]
    assert bit_tuples == sorted(bit_tuples)


class TestClusters:
    def test_f2_two_clusters(self, f2):
        clusters = clusters_of(f2.conflicts)
        groups = [{s.key for s in c} for c in clusters]
        assert {frozenset(g) for g in groups} == {
            frozenset({f2.s1.key, f2.s2.key}),
            frozenset({f2.s3.key}),
        }

    def test_single_set_single_cluster(self):
        only = mk_set(mk_mapping(1), mk_mapping(2))
        clusters = clusters_of(ConflictList([only]))
        assert len(clusters) == 1 and len(clusters[0]) == 1

    def test_sharing_is_transitive(self):
        m1, m2, m3, m4 = (mk_mapping(i) for i in range(1, 5))
        chain = [mk_set(m1, m2), mk_set(m2, m3), mk_set(m3, m4)]
        clusters = clusters_of(ConflictList(chain))
        assert len(clusters) == 1 and len(clusters[0]) == 3

    def test_empty(self):
        assert disjoint_conflict_clusters(()) == ()


class TestCountIncoherentClasses:
    def test_f1_full(self, f1):
        view = merged_view(f1.o1, f1.o2, f1.alignment)
        count, classes = count_incoherent_classes(view)
        assert count == 2
        assert {c.id for c in classes} == {"A1", "A2"}

    def test_f1_m1_only(self, f1):
        view = merged_view(f1.o1, f1.o2, Alignment([f1.m1]))
        assert count_incoherent_classes(view) == (0, ())

    def test_empty_alignment_is_clean(self, f1):
        view = merged_view(f1.o1, f1.o2, Alignment())
        assert count_incoherent_classes(view)[0] == 0


# -- randomized soundness / minimality / completeness ------------------------


def _valid_disjoints(rng, names, edges, want):
    """Pairs with provably disjoint descendant cones (keeps the build valid)."""
    down = {}
    for child, parent in edges:
        down.setdefault(parent, []).append(child)

    def cone(x):
        seen, stack = {x}, [x]
        while stack:
            u = stack.pop()
            for v in down.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    pairs = []
    for _ in range(want * 20):
        if len(pairs) >= want:
            break
        x, y = rng.sample(names, 2)
        if (x, y) in pairs or (y, x) in pairs:
            continue
        if cone(x) & cone(y):
            continue
        pairs.append((x, y))
    return pairs


def _random_instance(rng: random.Random):
    n1 = rng.randint(3, 20)
    n2 = rng.randint(3, 20)
    names1 = [f"a{i}" for i in range(n1)]
    names2 = [f"b{i}" for i in range(n2)]
    edges1 = [(names1[i], names1[rng.randrange(i)]) for i in range(1, n1)]
    edges2 = [(names2[i], names2[rng.randrange(i)]) for i in range(1, n2)]
    for names, edges in ((names1, edges1), (names2, edges2)):
        for _ in range(rng.randint(0, 2)):
            child = rng.randrange(1, len(names))
            parent = rng.randrange(0, child)
            edges.append((names[child], names[parent]))
    o1 = build_ontology(
        1, names1, edges1, _valid_disjoints(rng, names1, edges1, rng.randint(1, 2))
    )
    o2 = build_ontology(
        2, names2, edges2, _valid_disjoints(rng, names2, edges2, rng.randint(0, 1))
    )
    mappings = []
    seen = set()
    for _ in range(rng.randint(2, 9)):
        s = rng.choice(o1.classes)
        t = rng.choice(o2.classes)
        rel = rng.choice(list(Relation))
        if (s.id, t.id, rel.value) in seen:
            continue
        seen.add((s.id, t.id, rel.value))
        mappings.append(Mapping(s, t, rel, round(rng.random(), 3)))
    return o1, o2, Alignment(mappings)


def test_soundness_minimality_completeness_small_instances():
    instances = 0
    nonempty = 0
    for seed in range(60):
        rng = random.Random(900 + seed)
        o1, o2, align = _random_instance(rng)
        conflicts = _enumerate(o1, o2, align)
        instances += 1
        if len(conflicts):
            nonempty += 1

        for s in conflicts:
            a = s.witness_class
            b, c = s.witness_pair
            incoherent = exhaustive_incoherence(o1, o2, s.mappings)
            assert a in incoherent, "witness must be incoherent under its set"
            for m in s.mappings:
                smaller = exhaustive_incoherence(o1, o2, s.mappings - {m})
                assert a not in smaller, "proper subset reproduces the witness"

        contents = [frozenset(s.mappings) for s in conflicts]
        for x in contents:
            for y in contents:
                assert x == y or not x < y, "antichain violated"

        maps = list(align)
        subsets = [
            set(c)
            for r in range(len(maps) + 1)
            for c in itertools.combinations(maps, r)
        ]
        for sub in subsets:
            exact = len(exhaustive_incoherence(o1, o2, sub)) > 0
            flagged = any(s <= sub for s in contents)
            assert exact == flagged, "completeness mismatch"
    assert nonempty >= 10, f"too few conflicting instances ({nonempty})"


def test_cluster_independence_on_random_lists():
    rng = random.Random(5)
    for _ in range(40):
        maps = [mk_mapping(i) for i in range(rng.randint(2, 9))]
        sets = []
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(1, min(3, len(maps)))
            sets.append(mk_set(*rng.sample(maps, size)))
        cl = ConflictList(antichain(sets))
        clusters = clusters_of(cl)
        # partition
        seen = set()
        for c in clusters:
            for s in c:
                assert s.key not in seen
                seen.add(s.key)
        assert seen == {s.key for s in cl}
        # every mapping occurs in exactly one cluster
        for m in {m for s in cl for m in s.mappings}:
            holders = [
                c for c in clusters if any(m in s.mappings for s in c)
            ]
            assert len(holders) == 1
