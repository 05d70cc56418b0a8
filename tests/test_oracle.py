"""Oracle machinery: exhaustive incoherence, exact hitting sets, metrics."""

import random

import pytest

from alignrepair import (
    Alignment,
    ConflictList,
    RepairConfig,
    brute_force_min_hitting_set,
    build_ontology,
    exhaustive_incoherence,
    precision_recall_fmeasure,
    repair,
)

from conftest import antichain, mk_mapping, mk_set


class TestExhaustiveIncoherence:
    def test_f1_full(self, f1):
        got = exhaustive_incoherence(f1.o1, f1.o2, f1.alignment)
        assert {c.id for c in got} == {"A1", "A2"}

    def test_f1_without_m2(self, f1):
        assert exhaustive_incoherence(f1.o1, f1.o2, [f1.m1]) == set()

    def test_no_disjointness_is_always_clean(self):
        o1 = build_ontology(1, ["A", "B"], [("A", "B")])
        o2 = build_ontology(2, ["Y"])
        from alignrepair import ClassId, Mapping, Relation

        m = Mapping(ClassId("A", 1), ClassId("Y", 2), Relation.EQUIVALENCE)
        assert exhaustive_incoherence(o1, o2, [m]) == set()


class TestBruteForceMinHittingSet:
    def test_shared_mapping_hits_both(self):
        m1, m2, m3 = mk_mapping(1), mk_mapping(2), mk_mapping(3)
        got = brute_force_min_hitting_set([mk_set(m1, m2), mk_set(m1, m3)])
        assert got == (m1,)

    def test_triangle_needs_two(self):
        m1, m2, m3 = mk_mapping(1), mk_mapping(2), mk_mapping(3)
        sets = [mk_set(m1, m2), mk_set(m1, m3), mk_set(m2, m3)]
        assert len(brute_force_min_hitting_set(sets)) == 2

    def test_empty_list(self):
        assert brute_force_min_hitting_set([]) == ()

    def test_ties_resolved_by_total_confidence(self):
        cheap, dear = mk_mapping(1, 0.2), mk_mapping(2, 0.9)
        got = brute_force_min_hitting_set([mk_set(cheap, dear)])
        assert got == (cheap,)

    def test_cap_enforced(self):
        maps = [mk_mapping(i) for i in range(30)]
        sets = [mk_set(maps[i], maps[i + 1]) for i in range(29)]
        with pytest.raises(ValueError, match="cap"):
            brute_force_min_hitting_set(sets)

    def test_is_a_hitting_set_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(40):
            maps = [mk_mapping(i, round(rng.random(), 2))
                    for i in range(rng.randint(2, 10))]
            sets = [
                mk_set(*rng.sample(maps, rng.randint(1, min(3, len(maps)))))
                for _ in range(rng.randint(1, 8))
            ]
            got = set(brute_force_min_hitting_set(sets))
            for s in sets:
                assert got & set(s.mappings)


class TestPrecisionRecallFMeasure:
    def test_identity_scores_one(self, f2):
        ev = precision_recall_fmeasure(f2.alignment, f2.alignment)
        assert (ev.precision, ev.recall, ev.f_measure) == (1.0, 1.0, 1.0)

    def test_fixture_arithmetic(self):
        reference = Alignment([mk_mapping(i) for i in range(6)])
        produced = Alignment([mk_mapping(i) for i in (0, 1, 2, 10)])
        ev = precision_recall_fmeasure(produced, reference)
        assert ev.precision == pytest.approx(0.75)
        assert ev.recall == pytest.approx(0.5)
        assert ev.f_measure == pytest.approx(0.6)

    def test_disjoint_alignments_score_zero(self):
        a = Alignment([mk_mapping(1)])
        b = Alignment([mk_mapping(2)])
        ev = precision_recall_fmeasure(a, b)
        assert (ev.precision, ev.recall, ev.f_measure) == (0.0, 0.0, 0.0)

    def test_empty_denominator_conventions(self):
        empty = Alignment()
        some = Alignment([mk_mapping(1)])
        assert precision_recall_fmeasure(empty, some).precision == 1.0
        assert precision_recall_fmeasure(some, empty).recall == 1.0

    def test_identity_ignores_confidence(self):
        a = Alignment([mk_mapping(1, 0.2)])
        b = Alignment([mk_mapping(1, 0.9)])
        assert precision_recall_fmeasure(a, b).precision == 1.0


def test_repair_never_raises_recall():
    rng = random.Random(9)
    for _ in range(30):
        maps = [mk_mapping(i, round(rng.random(), 2))
                for i in range(rng.randint(3, 10))]
        sets = [
            mk_set(*rng.sample(maps, rng.randint(2, min(3, len(maps)))))
            for _ in range(rng.randint(1, 6))
        ]
        conflicts = ConflictList(antichain(sets))
        align = Alignment(maps)
        reference = Alignment(rng.sample(maps, rng.randint(1, len(maps))))
        result = repair(conflicts, align, RepairConfig())
        before = precision_recall_fmeasure(align, reference).recall
        after = precision_recall_fmeasure(result.kept, reference).recall
        assert after <= before + 1e-12
