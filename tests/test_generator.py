"""Generator determinism, coherence contracts, and the pinned regression
instance used throughout development."""

import pytest

from alignrepair import (
    GeneratorParams,
    RepairConfig,
    analyze,
    exhaustive_incoherence,
    generate_instance,
    precision_recall_fmeasure,
    repair,
    write_alignment_tsv,
    write_ontology_file,
)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        params = GeneratorParams(40, 12, 3, 0.4, seed=99)
        a = generate_instance(params)
        b = generate_instance(params)
        assert write_ontology_file(a[0]) == write_ontology_file(b[0])
        assert write_ontology_file(a[1]) == write_ontology_file(b[1])
        assert write_alignment_tsv(a[2]) == write_alignment_tsv(b[2])
        assert write_alignment_tsv(a[3]) == write_alignment_tsv(b[3])

    def test_different_seed_different_instance(self):
        a = generate_instance(GeneratorParams(40, 12, 3, 0.4, seed=1))
        b = generate_instance(GeneratorParams(40, 12, 3, 0.4, seed=2))
        assert write_alignment_tsv(a[2]) != write_alignment_tsv(b[2])


class TestCoherenceContract:
    def test_zero_noise_produces_reference_and_stays_coherent(self):
        for seed in range(12):
            params = GeneratorParams(30, 10, 3, 0.0, seed=seed)
            o1, o2, produced, reference = generate_instance(params)
            assert produced == reference
            assert exhaustive_incoherence(o1, o2, produced) == set()

    def test_reference_always_coherent_even_with_noise(self):
        for seed in range(8):
            params = GeneratorParams(35, 12, 3, 0.5, seed=seed)
            o1, o2, produced, reference = generate_instance(params)
            assert exhaustive_incoherence(o1, o2, reference) == set()
            assert set(reference).issubset(set(produced))

    def test_sides_and_counts(self):
        params = GeneratorParams(25, 8, 2, 0.25, seed=5)
        o1, o2, produced, reference = generate_instance(params)
        assert len(o1) == len(o2) == 25
        assert len(reference) == 8
        assert len(produced) == 8 + round(8 * 0.25)
        assert len(o1.disjointness) + len(o2.disjointness) == 2


class TestParamValidation:
    def test_bad_noise_rate(self):
        with pytest.raises(ValueError):
            GeneratorParams(10, 5, 1, 1.5, seed=0)

    def test_too_many_mappings(self):
        with pytest.raises(ValueError):
            GeneratorParams(10, 11, 1, 0.0, seed=0)

    def test_nonpositive_branching(self):
        with pytest.raises(ValueError):
            GeneratorParams(10, 5, 1, 0.0, seed=0, branching=0.0)


class TestPinnedRegression:
    """classes 30 / mappings 10 / noise 0.3 / seed 7, frozen during
    development; repair must keep removing exactly this mapping."""

    @pytest.fixture()
    def instance(self):
        params = GeneratorParams(
            classes_per_side=30, mapping_count=10, disjoint_pairs=2,
            noise_rate=0.3, seed=7,
        )
        return generate_instance(params)

    def test_repair_removes_at_least_one(self, instance):
        o1, o2, produced, reference = instance
        conflicts = analyze(o1, o2, produced).conflicts
        result = repair(conflicts, produced, RepairConfig())
        assert len(result.removed) >= 1

    def test_frozen_trace(self, instance):
        o1, o2, produced, reference = instance
        assert len(produced) == 13
        analysis = analyze(o1, o2, produced)
        assert analysis.incoherent_before == 5
        conflicts = analysis.conflicts
        assert len(conflicts) == 2
        result = repair(conflicts, produced, RepairConfig())
        assert [r.mapping.key for r in result.removed] == [
            ("a0002", "b0002", "=")
        ]
        assert exhaustive_incoherence(o1, o2, result.kept) == set()
        ev = precision_recall_fmeasure(result.kept, reference)
        assert ev.precision == pytest.approx(0.75)
        assert ev.recall == pytest.approx(0.9)
