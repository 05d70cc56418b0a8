"""Shared fixtures: the three canonical instances used across the suite,
and ROADMAP M from the instance table (`tests/instances.py`).

F1: two tiny ontologies joined by an equivalence and a subsumption whose
    combination is incoherent.
F2: abstract conflict sets S1={m1,m2}, S2={m1,m3}, S3={m4,m5} with
    confidences 0.6/0.7/0.8/0.4/0.9.
F3: a single diamond-shaped hierarchy with a multi-parent bottom class.
M:  10,000 classes per side and 2,000 mappings (the dense-align
    workload), analysed once per session.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from alignrepair import (
    Alignment,
    ClassId,
    ConflictList,
    ConflictSet,
    GeneratorError,
    GeneratorParams,
    Mapping,
    Relation,
    analyze,
    build_ontology,
    exhaustive_incoherence,
    generate_instance,
)
from alignrepair.conflicts import disjoint_conflict_clusters
from alignrepair.greedy import filter_conflicts

from instances import INSTANCES


def mk_mapping(i: int, confidence: float = 1.0,
               relation: Relation = Relation.EQUIVALENCE) -> Mapping:
    """Abstract mapping m<i> with a canonical, sortable identity."""
    return Mapping(
        ClassId(f"s{i:02d}", 1), ClassId(f"t{i:02d}", 2), relation, confidence
    )


WITNESS = ClassId("w", 1)
PAIR = (ClassId("p", 1), ClassId("q", 1))


def mk_set(*mappings: Mapping) -> ConflictSet:
    return ConflictSet(frozenset(mappings), WITNESS, PAIR)


def antichain(sets) -> tuple[ConflictSet, ...]:
    """Reference pruning: keep the smallest-witness set of each mapping
    set, drop every set that another one strictly contains, then order
    by key.  Random families go through it before `ConflictList`, which
    expects an antichain."""
    by_key = {}
    for s in sorted(sets, key=lambda s: (s.key, s.witness_class, s.witness_pair)):
        by_key.setdefault(s.key, s)
    candidates = list(by_key.values())
    kept = [
        s for s in candidates if not any(o.mappings < s.mappings for o in candidates)
    ]
    return tuple(sorted(kept, key=lambda s: s.key))


@dataclass
class F1:
    o1: object
    o2: object
    m1: Mapping
    m2: Mapping
    alignment: Alignment

    def cid(self, name: str) -> ClassId:
        onto = self.o1 if name.endswith("1") else self.o2
        return onto.class_id(name)


@pytest.fixture
def f1() -> F1:
    o1 = build_ontology(1, ["A1", "B1", "C1", "D1"], [("A1", "B1")], [("B1", "C1")])
    o2 = build_ontology(2, ["A2", "X2"], [("A2", "X2")])
    m1 = Mapping(o1.class_id("A1"), o2.class_id("A2"), Relation.EQUIVALENCE, 0.9)
    m2 = Mapping(o1.class_id("C1"), o2.class_id("A2"), Relation.SUBSUMES, 0.5)
    return F1(o1, o2, m1, m2, Alignment([m1, m2]))


@dataclass
class F2:
    m1: Mapping
    m2: Mapping
    m3: Mapping
    m4: Mapping
    m5: Mapping
    s1: ConflictSet
    s2: ConflictSet
    s3: ConflictSet
    conflicts: ConflictList
    alignment: Alignment


@pytest.fixture
def f2() -> F2:
    m1 = mk_mapping(1, 0.6)
    m2 = mk_mapping(2, 0.7)
    m3 = mk_mapping(3, 0.8)
    m4 = mk_mapping(4, 0.4)
    m5 = mk_mapping(5, 0.9)
    s1 = mk_set(m1, m2)
    s2 = mk_set(m1, m3)
    s3 = mk_set(m4, m5)
    return F2(m1, m2, m3, m4, m5, s1, s2, s3,
              ConflictList([s1, s2, s3]), Alignment([m1, m2, m3, m4, m5]))


@pytest.fixture
def f3():
    return build_ontology(
        1,
        list("ABCDEF"),
        [("B", "A"), ("C", "A"), ("D", "B"), ("D", "C"), ("E", "D"), ("E", "F")],
    )


@pytest.fixture(scope="session")
def m_instance():
    """(o1, o2, produced, analysis) of M."""
    o1, o2, produced, _ = generate_instance(GeneratorParams(*INSTANCES["M"].fields))
    return o1, o2, produced, analyze(o1, o2, produced)


def confidences(conflicts: ConflictList) -> list[float]:
    """The confidence of each bit of a conflict list's masks."""
    return [m.confidence for m in conflicts.mappings]


def filter_list(conflicts: ConflictList, epsilon: float):
    """`filter_conflicts` on a conflict list: the unresolved masks, and
    the removed bits as mappings."""
    remaining, removed = filter_conflicts(
        conflicts.masks, confidences(conflicts), epsilon
    )
    return remaining, [conflicts.mappings[b] for b in removed]


def clusters_of(conflicts: ConflictList) -> tuple[tuple[ConflictSet, ...], ...]:
    """`disjoint_conflict_clusters` on a conflict list, as its sets."""
    by_mask = dict(zip(conflicts.masks, conflicts.sets))
    return tuple(tuple(by_mask[mask] for mask in cluster)
                 for cluster in disjoint_conflict_clusters(conflicts.masks))


@st.composite
def generated_instances(draw):
    """(o1, o2, produced) of a small generator instance; parameter draws
    the generator cannot satisfy are rejected."""
    classes = draw(st.integers(2, 60))
    fields = (
        classes,
        int(classes * draw(st.floats(0.0, 1.0))),
        draw(st.integers(0, 6)),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 12)),
        draw(st.sampled_from([1.0, 1.15, 2.0, 3.0])),
    )
    try:
        params = GeneratorParams(*fields)
    except ValueError:  # more disjoint pairs than the classes form
        assume(False)
    try:
        o1, o2, produced, _ = generate_instance(params)
    except GeneratorError:
        assume(False)
    return o1, o2, produced


def equivalence_only(alignment: Alignment) -> Alignment:
    """ROADMAP's E transform: every relation becomes `=`, and of the
    mappings between one (source, target) pair only the first, in
    canonical order (the line order of a written TSV), is kept."""
    first: dict[tuple[ClassId, ClassId], Mapping] = {}
    for m in alignment:
        first.setdefault((m.source, m.target), m)
    return Alignment(Mapping(m.source, m.target, Relation.EQUIVALENCE, m.confidence)
                     for m in first.values())


def renamed_instance(o1, o2, alignment, seed: int):
    """The same instance with every class renamed by a seeded permutation.

    The new names interleave the two sides and follow no hierarchy
    order, unlike the generator's names."""
    rng = random.Random(seed)
    old = [c.id for c in o1.classes + o2.classes]
    new = dict(zip(old, rng.sample([f"c{i:05d}" for i in range(len(old))], len(old))))

    def rebuild(onto):
        return build_ontology(
            onto.side,
            [new[c.id] for c in onto.classes],
            [(new[a.id], new[b.id]) for a, b in onto.subclass_edges],
            [(new[a.id], new[b.id]) for a, b in onto.disjointness],
        )

    r1, r2 = rebuild(o1), rebuild(o2)
    return r1, r2, Alignment(
        Mapping(r1.class_id(new[m.source.id]), r2.class_id(new[m.target.id]),
                m.relation, m.confidence)
        for m in alignment
    )


def random_alignment(rng: random.Random, o1, o2, draws: int) -> Alignment:
    """`draws` seeded mapping draws between o1 and o2; a draw that repeats
    an earlier (source, target, relation) is dropped."""
    mappings = []
    seen = set()
    for _ in range(draws):
        s = rng.choice(o1.classes)
        t = rng.choice(o2.classes)
        rel = rng.choice(list(Relation))
        if (s.id, t.id, rel.value) in seen:
            continue
        seen.add((s.id, t.id, rel.value))
        mappings.append(Mapping(s, t, rel, round(rng.random(), 3)))
    return Alignment(mappings)


def core_pairs(fragments) -> list[tuple[ClassId, ClassId]]:
    """The fragments' disjoint pairs as ClassIds, from their global ids."""
    at = fragments.view.class_at
    return [(at(a), at(b)) for a, b in fragments.view.disjoint]


def checkset_classes(fragments) -> tuple[ClassId, ...]:
    """The fragments' checkset as ClassIds, from its global ids."""
    return tuple(map(fragments.view.class_at, fragments.checkset))


def check_sound_minimal_complete(o1, o2, conflicts, subsets) -> int:
    """The conflict-list oracle check: assert that every set reproduces
    its witness and no proper subset does, that no set contains another,
    and that the sets flag exactly the incoherent subsets; returns the
    number of sets.  Every source of conflict sets is tested through it."""
    for s in conflicts:
        a = s.witness_class
        incoherent = exhaustive_incoherence(o1, o2, s.mappings)
        assert a in incoherent, "emitted set fails to reproduce witness"
        for m in s.mappings:
            rest = exhaustive_incoherence(o1, o2, s.mappings - {m})
            assert a not in rest, "proper subset still incoherent at witness"
    contents = [frozenset(s.mappings) for s in conflicts]
    for x in contents:
        for y in contents:
            assert not x < y, "antichain violated"
    for sub in subsets:
        exact = len(exhaustive_incoherence(o1, o2, sub)) > 0
        flagged = any(cs <= sub for cs in contents)
        assert exact == flagged, "containment test disagrees with the oracle"
    return len(conflicts)


# -- brute-force oracles ---------------------------------------------------
# Deliberately naive: plain adjacency dictionaries and quadratic scans,
# sharing nothing with the package's condensation/bitmask machinery.


def brute_reachable(edges: list[tuple]) -> dict:
    """Reflexive-transitive closure as {node: set(reachable)} via BFS."""
    adj: dict = {}
    nodes = set()
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        nodes.add(a)
        nodes.add(b)
    closure = {}
    for start in nodes:
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        closure[start] = seen
    return closure


def merged_edge_list(o1, o2, mappings) -> list[tuple]:
    edges = [(c, p) for onto in (o1, o2) for c, p in onto.subclass_edges]
    for m in mappings:
        if m.relation in (Relation.EQUIVALENCE, Relation.SUBSUMED_BY):
            edges.append((m.source, m.target))
        if m.relation in (Relation.EQUIVALENCE, Relation.SUBSUMES):
            edges.append((m.target, m.source))
    return edges


def brute_entails(o1, o2, mappings):
    """reach(a, b) over the full merged graph, reflexive."""
    closure = brute_reachable(merged_edge_list(o1, o2, mappings))

    def reach(a, b):
        return a == b or b in closure.get(a, {a})

    return reach


def brute_direct_superclasses(o1, o2, mappings, a):
    """Covers of a's component per the strict-order definition."""
    reach = brute_entails(o1, o2, mappings)
    classes = list(o1.classes) + list(o2.classes)

    def strict(x, y):
        return reach(x, y) and not reach(y, x)

    out = set()
    for b in classes:
        if not strict(a, b):
            continue
        if any(strict(a, c) and strict(c, b) for c in classes):
            continue
        out.add(b)
    return out


# -- reference greedy pick -------------------------------------------------
# The greedy step as it was before its lookahead stopped branching on the
# last level: every tied candidate is rescored from scratch at every
# level.  Exponential in the depth, but obviously the rule; the engine's
# `_select_worst` must make the same pick and report the same flag.


def ref_count_sim_candidates(sets) -> list[Mapping]:
    """Mappings with maximal occurrence count, then minimal confidence."""
    counts: Counter[tuple] = Counter()
    by_key: dict[tuple, Mapping] = {}
    for s in sets:
        for m in s.mappings:
            counts[m.key] += 1
            by_key.setdefault(m.key, m)
    max_count = max(counts.values())
    tied = [by_key[k] for k, c in counts.items() if c == max_count]
    min_sim = min(m.confidence for m in tied)
    tied = [m for m in tied if m.confidence == min_sim]
    tied.sort(key=lambda m: m.key)
    return tied


def ref_resolved_conflicts(sets, mapping: Mapping, depth: int) -> int:
    """Conflict sets resolvable by removing `mapping` plus `depth` more
    greedy removals, each chosen among the residue's worst candidates."""
    hit = sum(1 for s in sets if mapping in s.mappings)
    if depth <= 0:
        return hit
    residue = tuple(s for s in sets if mapping not in s.mappings)
    if not residue:
        return hit
    best = 0
    for candidate in ref_count_sim_candidates(residue):
        score = ref_resolved_conflicts(residue, candidate, depth - 1)
        if score > best:
            best = score
    return hit + best


def ref_select_worst(sets, search_depth: int) -> tuple[Mapping, bool]:
    """One greedy pick; second value reports whether lookahead scores
    actually distinguished tied candidates."""
    candidates = ref_count_sim_candidates(sets)
    if len(candidates) == 1 or search_depth == 0:
        return candidates[0], False
    scored = [(ref_resolved_conflicts(sets, m, search_depth), m) for m in candidates]
    best_score = max(score for score, _ in scored)
    decisive = any(score != best_score for score, _ in scored)
    winners = sorted((m for score, m in scored if score == best_score),
                     key=lambda m: m.key)
    return winners[0], decisive
