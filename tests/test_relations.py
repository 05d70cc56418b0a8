"""How the conflict lists of related searches relate, on ROADMAP M
(`conftest.m_instance`) and on small generated instances.

- Start sets: the paper's checkset plus the disjointness endpoints
  misses conflicts on M and finds sets that are not minimal; the
  divergence starts plus the endpoints find every conflict, and only
  some witnesses move (ROADMAP item 18).
- Subset closure: the conflicts of a subset of the alignment are exactly
  the conflicts of the whole alignment that lie inside the subset.
- Fragment reuse: the same holds when the subset is searched on the
  whole alignment's fragments.
- Side swap: reading the two ontologies the other way round, with every
  mapping reversed, gives the same conflict family and the same witness
  for each set.  Global ids follow the class names, whatever their side,
  so the smallest witness does not depend on the side either.
"""

import dataclasses
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alignrepair import (
    Alignment,
    EnumerationCapExceeded,
    Mapping,
    Relation,
    build_ontology,
    extract_core_fragments,
    find_conflict_sets,
)
from alignrepair.fragments import _divergence_starts

from conftest import generated_instances

FLIP = {"=": Relation.EQUIVALENCE, "<": Relation.SUBSUMES, ">": Relation.SUBSUMED_BY}


def keys(conflicts) -> set:
    return {s.key for s in conflicts}


def search_from(fragments, starts, alignment):
    """The conflicts found from `starts` and the disjointness endpoints."""
    ends = {g for pair in fragments.view.disjoint for g in pair}
    narrowed = dataclasses.replace(fragments, starts=tuple(sorted(ends.union(starts))))
    return find_conflict_sets(narrowed, (), alignment)


def random_subset(alignment, seed: int) -> Alignment:
    """Each mapping kept with probability 0.7."""
    rng = random.Random(seed)
    return Alignment(m for m in alignment if rng.random() < 0.7)


def keys_inside(conflicts, alignment) -> set:
    """The keys of the sets whose mappings all lie in `alignment`."""
    present = {m.key for m in alignment}
    return {s.key for s in conflicts if present.issuperset(s.key)}


def swapped(o1, o2, alignment):
    """The instance with the sides exchanged and every mapping reversed."""

    def rebuild(side, onto):
        return build_ontology(
            side,
            [c.id for c in onto.classes],
            [(a.id, b.id) for a, b in onto.subclass_edges],
            [(a.id, b.id) for a, b in onto.disjointness],
        )

    s1, s2 = rebuild(1, o2), rebuild(2, o1)
    return s1, s2, Alignment(
        Mapping(s1.class_id(m.target.id), s2.class_id(m.source.id),
                FLIP[m.relation.value], m.confidence)
        for m in alignment
    )


def family(conflicts, swap: bool = False) -> dict:
    """Each set's mappings, as keys of the unswapped instance, with its
    witness by class names; `swap` reads the conflicts of `swapped`."""
    def unswap(key):
        source, target, relation = key
        return (target, source, FLIP[relation].value) if swap else key

    return {
        frozenset(map(unswap, s.key)):
            (s.witness_class.id, sorted(c.id for c in s.witness_pair))
        for s in conflicts
    }


def conflicts_of(o1, o2, alignment, fragments=None):
    """The conflict list, on `fragments` when given; a search that trips
    its cap is rejected (ROADMAP item 3)."""
    if fragments is None:
        fragments = extract_core_fragments(o1, o2, alignment)
    try:
        return find_conflict_sets(fragments, (), alignment, max_work=20_000)
    except EnumerationCapExceeded:
        assume(False)


# -- M ----------------------------------------------------------------------


def test_checkset_and_endpoints_miss_conflicts_on_m(m_instance):
    _, _, produced, analysis = m_instance
    fragments, full = analysis.fragments, analysis.conflicts
    found = search_from(fragments, fragments.checkset, produced)
    assert (len(full), len(found)) == (472, 429)
    assert len(keys(full) - keys(found)) == 122
    extra = [s for s in found if s.key not in keys(full)]
    assert len(extra) == 79
    assert all(any(t.mappings < s.mappings for t in full) for s in extra)


def test_divergence_starts_and_endpoints_lose_nothing_on_m(m_instance):
    _, _, produced, analysis = m_instance
    fragments, full = analysis.fragments, analysis.conflicts
    found = search_from(fragments, _divergence_starts(fragments.view), produced)
    assert keys(found) == keys(full)
    witness = {s.key: (s.witness_class, s.witness_pair) for s in full}
    moved = [s for s in found if (s.witness_class, s.witness_pair) != witness[s.key]]
    assert len(moved) == 17


def test_subset_closure_on_m(m_instance):
    o1, o2, produced, analysis = m_instance
    subset = random_subset(produced, 1)
    expected = keys_inside(analysis.conflicts, subset)
    assert len(expected) == 205
    assert keys(conflicts_of(o1, o2, subset)) == expected


def test_fragment_reuse_on_m(m_instance):
    o1, o2, produced, analysis = m_instance
    subset = random_subset(produced, 1)
    found = conflicts_of(o1, o2, subset, analysis.fragments)
    assert len(found) == 205
    assert keys(found) == keys_inside(analysis.conflicts, subset)


def test_side_swap_on_m(m_instance):
    o1, o2, produced, analysis = m_instance
    found = conflicts_of(*swapped(o1, o2, produced))
    assert len(found) == 472
    assert family(found, swap=True) == family(analysis.conflicts)


# -- small generated instances ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(generated_instances(), st.integers(0, 10_000))
def test_subset_closure_and_fragment_reuse(instance, seed):
    o1, o2, align = instance
    fragments = extract_core_fragments(o1, o2, align)
    full = conflicts_of(o1, o2, align, fragments)
    subset = random_subset(align, seed)
    expected = keys_inside(full, subset)
    assert keys(conflicts_of(o1, o2, subset)) == expected
    assert keys(conflicts_of(o1, o2, subset, fragments)) == expected


@settings(max_examples=60, deadline=None)
@given(generated_instances())
def test_side_swap(instance):
    full = conflicts_of(*instance)
    assert family(conflicts_of(*swapped(*instance)), swap=True) == family(full)
