"""Repair engine: filter arithmetic, greedy selection, lookahead, and the
full loop, pinned to hand-simulated traces."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alignrepair import (
    Alignment,
    ConflictList,
    EnumerationCapExceeded,
    RemovalCause,
    RepairConfig,
    brute_force_min_hitting_set,
    count_incoherent_classes,
    exhaustive_incoherence,
    extract_core_fragments,
    filter_conflicts,
    find_conflict_sets,
    merged_view,
    analyze,
    repair,
)
from alignrepair.greedy import _lookahead, _residue, _select_worst

from conftest import (
    antichain,
    checkset_classes,
    generated_instances,
    mk_mapping,
    mk_set,
    ref_select_worst,
    renamed_instance,
)


def resolved(sets, m, depth):
    """Sets resolved by removing `m` and then `depth` greedy removals."""
    residue = _residue(sets, m)
    return len(sets) - len(residue) + _lookahead(residue, depth)


def ring(n):
    """n tied mappings, with the conflict sets {m_i, m_(i+1 mod n)}."""
    maps = [mk_mapping(i) for i in range(n)]
    return maps, ConflictList(mk_set(maps[i], maps[(i + 1) % n]) for i in range(n))


class TestFilterConflicts:
    def test_interval_allows_removal(self):
        hi, lo = mk_mapping(1, 0.9), mk_mapping(2, 0.5)
        remaining, removed = filter_conflicts(ConflictList([mk_set(hi, lo)]), 0.1)
        assert removed == [lo]  # 0.5 + 0.1 < 0.9 - 0.1
        assert len(remaining) == 0

    def test_interval_blocks_removal(self):
        hi, lo = mk_mapping(1, 0.9), mk_mapping(2, 0.5)
        remaining, removed = filter_conflicts(ConflictList([mk_set(hi, lo)]), 0.25)
        assert removed == []  # 0.75 < 0.65 is false
        assert len(remaining) == 1

    def test_boundary_is_strict(self):
        hi, lo = mk_mapping(1, 0.9), mk_mapping(2, 0.5)
        remaining, removed = filter_conflicts(ConflictList([mk_set(hi, lo)]), 0.2)
        assert removed == []  # 0.7 < 0.7 is false

    def test_f2_trace(self, f2):
        remaining, removed = filter_conflicts(f2.conflicts, 0.05)
        assert removed == [f2.m4, f2.m1]
        assert len(remaining) == 0

    def test_equal_confidences_never_filtered(self):
        a, b = mk_mapping(1, 0.7), mk_mapping(2, 0.7)
        remaining, removed = filter_conflicts(ConflictList([mk_set(a, b)]), 0.0)
        assert removed == []
        assert len(remaining) == 1

    def test_singleton_sets_left_to_the_greedy_step(self):
        only = mk_mapping(1, 0.1)
        remaining, removed = filter_conflicts(ConflictList([mk_set(only)]), 0.5)
        assert removed == []
        assert len(remaining) == 1

    def test_epsilon_zero_filters_distinct_confidences(self):
        a, b = mk_mapping(1, 0.7), mk_mapping(2, 0.71)
        _, removed = filter_conflicts(ConflictList([mk_set(a, b)]), 0.0)
        assert removed == [a]

    def test_negative_epsilon_rejected(self, f2):
        with pytest.raises(ValueError):
            filter_conflicts(f2.conflicts, -0.5)


class TestWorstMapping:
    """The greedy step's pick, `_select_worst`."""

    def test_highest_count_wins(self, f2):
        cluster = [f2.s1, f2.s2]
        assert _select_worst(cluster, 0)[0] == f2.m1

    def test_confidence_breaks_count_ties(self):
        hi, lo = mk_mapping(1, 0.9), mk_mapping(2, 0.5)
        cluster = [mk_set(hi, lo)]
        assert _select_worst(cluster, 0)[0] == lo

    def test_triangle_all_tied_canonical_winner(self):
        a, b, c = mk_mapping(1, 0.7), mk_mapping(2, 0.7), mk_mapping(3, 0.7)
        cluster = [mk_set(a, b), mk_set(b, c), mk_set(a, c)]
        assert _select_worst(cluster, 2)[0] == a


class TestResolvedConflicts:
    """Removal plus lookahead, through the test-side `resolved`."""

    def test_depth_zero_counts_sets(self, f2):
        assert resolved([f2.s1, f2.s2], f2.m1, 0) == 2

    def test_depth_one_adds_best_followup(self, f2):
        assert resolved([f2.s1, f2.s2], f2.m2, 1) == 2

    def test_singleton_cluster_any_depth(self, f2):
        assert resolved([f2.s3], f2.m4, 5) == 1

    def test_triangle_depth_two_totals_three(self):
        a, b, c = mk_mapping(1, 0.7), mk_mapping(2, 0.7), mk_mapping(3, 0.7)
        cluster = [mk_set(a, b), mk_set(b, c), mk_set(a, c)]
        for candidate in (a, b, c):
            assert resolved(cluster, candidate, 2) == 3


class TestRemoveMapping:
    """What a removal leaves, `_residue`."""

    def test_removes_all_containing_sets(self, f2):
        assert _residue([f2.s1, f2.s2], f2.m1) == ()

    def test_keeps_unrelated_sets(self, f2):
        assert _residue([f2.s1, f2.s2], f2.m2) == (f2.s2,)

    def test_empty_identity(self, f2):
        assert _residue([], f2.m1) == ()


@st.composite
def tied_families(draw):
    """A conflict list over at most 10 mappings whose confidences tie
    often, with at least one set."""
    confs = draw(st.lists(st.sampled_from([0.5, 0.7, 1.0]), min_size=1, max_size=10))
    maps = [mk_mapping(i, c) for i, c in enumerate(confs)]
    members = st.sets(st.sampled_from(range(len(maps))), min_size=1, max_size=3)
    sets = draw(st.lists(members, min_size=1, max_size=12))
    return ConflictList(antichain(mk_set(*(maps[i] for i in s)) for s in sets))


def assert_picks_match_reference(sets, depth):
    """Along a whole unclustered greedy run, each pick and its flag equal
    the reference's."""
    while sets:
        pick = _select_worst(sets, depth)
        assert pick == ref_select_worst(sets, depth)
        sets = _residue(sets, pick[0])


class TestSelectWorstMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(tied_families(), st.integers(0, 3))
    def test_tied_families(self, conflicts, depth):
        assert_picks_match_reference(conflicts.sets, depth)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_rings(self, n):
        """Depth 3 stops at n = 16, where the reference takes seconds."""
        _, conflicts = ring(n)
        for depth in range(4 if n <= 16 else 3):
            assert_picks_match_reference(conflicts.sets, depth)

    @pytest.mark.parametrize("depth, expected, tiebreaks", [
        (0, [1, 0, 3], 0),
        (1, [2, 4], 1),
        (2, [1, 0, 3], 0),
        (3, [1, 0, 3], 0),
    ])
    def test_pinned_case_the_lookahead_decides(self, depth, expected, tiebreaks):
        maps = [mk_mapping(i) for i in range(5)]
        conflicts = ConflictList(
            mk_set(maps[a], maps[b]) for a, b in ((0, 2), (1, 2), (1, 4), (3, 4))
        )
        result = repair(conflicts, Alignment(maps), RepairConfig(search_depth=depth))
        assert [r.mapping for r in result.removed] == [maps[i] for i in expected]
        assert result.stats.lookahead_tiebreaks == tiebreaks


class TestRepair:
    def test_f1_removes_lower_confidence(self, f1):
        from alignrepair import merged_view

        conflicts = analyze(f1.o1, f1.o2, f1.alignment).conflicts
        result = repair(conflicts, f1.alignment, RepairConfig(-1.0, 0, True))
        assert [r.mapping for r in result.removed] == [f1.m2]
        assert list(result.kept) == [f1.m1]
        from alignrepair import count_incoherent_classes

        after = merged_view(f1.o1, f1.o2, result.kept)
        assert count_incoherent_classes(after)[0] == 0

    def test_f2_matches_bruteforce_optimum(self, f2):
        result = repair(f2.conflicts, f2.alignment, RepairConfig(-1.0, 0, True))
        removed = {r.mapping for r in result.removed}
        assert removed == {f2.m1, f2.m4}
        assert len(removed) == len(brute_force_min_hitting_set(f2.conflicts.sets))

    def test_empty_conflicts_keep_everything(self, f2):
        result = repair(ConflictList(), f2.alignment)
        assert result.removed == ()
        assert result.kept == f2.alignment

    def test_kept_and_removed_partition_input(self, f2):
        result = repair(f2.conflicts, f2.alignment)
        removed = {r.mapping for r in result.removed}
        assert removed | set(result.kept) == set(f2.alignment)
        assert removed & set(result.kept) == set()

    def test_every_set_is_hit(self, f2):
        result = repair(f2.conflicts, f2.alignment)
        removed = {r.mapping for r in result.removed}
        for s in f2.conflicts:
            assert s.mappings & removed

    def test_filtering_recorded_with_cause(self, f2):
        result = repair(f2.conflicts, f2.alignment,
                        RepairConfig(epsilon=0.05, search_depth=0))
        causes = {r.mapping: r.cause for r in result.removed}
        assert causes[f2.m4] is RemovalCause.FILTERED
        assert causes[f2.m1] is RemovalCause.FILTERED

    def test_negative_epsilon_bypasses_filter(self, f2):
        a = repair(f2.conflicts, f2.alignment, RepairConfig(epsilon=-1.0))
        b = repair(f2.conflicts, f2.alignment, RepairConfig(epsilon=-123.0))
        assert a == b
        assert all(r.cause is RemovalCause.GREEDY for r in a.removed)

    def test_deterministic_including_order(self, f2):
        runs = [
            repair(f2.conflicts, f2.alignment, RepairConfig(-1.0, 2, True))
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_cluster_flag_changes_processing_not_validity(self, f2):
        on = repair(f2.conflicts, f2.alignment, RepairConfig(-1.0, 2, True))
        off = repair(f2.conflicts, f2.alignment, RepairConfig(-1.0, 2, False))
        for result in (on, off):
            removed = {r.mapping for r in result.removed}
            for s in f2.conflicts:
                assert s.mappings & removed

    def test_stats_counts(self, f2):
        result = repair(f2.conflicts, f2.alignment)
        assert result.stats.clusters_processed == 2

    def test_tied_ring_of_forty_at_default_depth(self):
        """A ring is one cluster in which every mapping ties; the
        lookahead's last level only counts, so 40 of them repair within
        3 s."""
        maps, conflicts = ring(40)
        start = time.perf_counter()
        result = repair(conflicts, Alignment(maps))
        elapsed = time.perf_counter() - start
        assert [r.mapping for r in result.removed] == maps[::2]
        assert result.stats.lookahead_tiebreaks == 1
        assert elapsed < 3.0

    def test_ten_thousand_independent_sets(self):
        """The cluster queue takes clusters by first key without
        re-sorting the rest: 10,000 clusters repair within 2 s, each
        losing its lower-confidence mapping, in key order."""
        n = 10_000
        maps = [mk_mapping(i, 0.1 + 0.8 * (i * 7919 % (2 * n)) / (2 * n))
                for i in range(2 * n)]
        conflicts = ConflictList(mk_set(maps[2 * i], maps[2 * i + 1])
                                 for i in range(n))
        start = time.perf_counter()
        result = repair(conflicts, Alignment(maps))
        elapsed = time.perf_counter() - start
        expected = [min(s.mappings, key=lambda m: m.confidence) for s in conflicts]
        assert [r.mapping for r in result.removed] == expected
        assert result.stats.clusters_processed == n
        assert elapsed < 2.0

    def test_clustering_can_remove_more(self):
        """Clustering confines the lookahead to one cluster.  Here every
        pick in the big cluster ties within it, so the clustered repair
        takes s01 canonically and needs four removals; unclustered, the
        lookahead also counts {s02} and finds the optimum of three.
        ROADMAP item 7 tracks the gap."""
        maps = [mk_mapping(i) for i in range(6)]
        conflicts = ConflictList(
            mk_set(*(maps[i] for i in ix))
            for ix in ((0, 3), (1, 3), (1, 4), (2,), (4, 5))
        )
        for flag, expected in ((True, (1, 0, 2, 4)), (False, (3, 4, 2))):
            result = repair(conflicts, Alignment(maps), RepairConfig(use_clusters=flag))
            assert [r.mapping for r in result.removed] == [maps[i] for i in expected]
        assert len(brute_force_min_hitting_set(conflicts.sets)) == 3

    @pytest.mark.parametrize("depth", [-1, 2.5, True])
    def test_search_depth_must_be_a_nonnegative_int(self, depth):
        with pytest.raises(ValueError, match="search_depth"):
            RepairConfig(search_depth=depth)


def test_cluster_decomposition_preserves_per_cluster_optimality():
    """Clusters share no mappings, so the global optimum is the sum of the
    cluster optima; whenever greedy matches the optimum inside every
    cluster, the clustered repair is globally optimal."""
    from alignrepair import disjoint_conflict_clusters

    rng = random.Random(123)
    confirmed = 0
    for _ in range(80):
        maps = [mk_mapping(i, 1.0) for i in range(rng.randint(3, 10))]
        sets = [
            mk_set(*rng.sample(maps, rng.randint(2, min(3, len(maps)))))
            for _ in range(rng.randint(2, 10))
        ]
        conflicts = ConflictList(antichain(sets))
        if not len(conflicts):
            continue
        align = Alignment(maps)
        clusters = disjoint_conflict_clusters(conflicts.sets)
        per_cluster_optimal = True
        total_optimum = 0
        for cluster in clusters:
            optimum = len(brute_force_min_hitting_set(cluster))
            total_optimum += optimum
            greedy = repair(
                ConflictList(cluster), align, RepairConfig(-1.0, 3, False)
            )
            if len(greedy.removed) != optimum:
                per_cluster_optimal = False
        assert total_optimum == len(brute_force_min_hitting_set(conflicts.sets))
        if per_cluster_optimal:
            full = repair(conflicts, align, RepairConfig(-1.0, 3, True))
            assert len(full.removed) == total_optimum
            confirmed += 1
    assert confirmed >= 30


def test_random_repairs_hit_everything_and_beat_nothing():
    """Greedy removals always form a hitting set and never beat the optimum."""
    rng = random.Random(77)
    for _ in range(60):
        maps = [mk_mapping(i, round(rng.random(), 2)) for i in range(rng.randint(2, 10))]
        sets = []
        for _ in range(rng.randint(1, 12)):
            size = rng.randint(1, min(3, len(maps)))
            sets.append(mk_set(*rng.sample(maps, size)))
        conflicts = ConflictList(antichain(sets))
        align = Alignment(maps)
        for depth in (0, 2):
            for clusters in (True, False):
                result = repair(conflicts, align, RepairConfig(-1.0, depth, clusters))
                removed = {r.mapping for r in result.removed}
                for s in conflicts:
                    assert s.mappings & removed
                optimum = brute_force_min_hitting_set(conflicts.sets)
                assert len(removed) >= len(optimum)
                # no gratuitous removals
                live = list(conflicts)
                for r in result.removed:
                    assert any(r.mapping in s.mappings for s in live)
                    live = [s for s in live if r.mapping not in s.mappings]


@settings(max_examples=40, deadline=None)
@given(generated_instances(), st.integers(0, 10_000))
def test_renamed_classes_count_and_repair_agree_with_the_oracle(instance, seed):
    """Class names in no hierarchy order, interleaving the two sides: the
    incoherence count matches the oracle and the repair is coherent."""
    o1, o2, align = renamed_instance(*instance, seed)
    count, classes = count_incoherent_classes(merged_view(o1, o2, align))
    expected = exhaustive_incoherence(o1, o2, align)
    assert count == len(expected) and set(classes) == expected
    assert list(classes) == sorted(classes)
    frags = extract_core_fragments(o1, o2, align)
    checkset = checkset_classes(frags)
    try:
        conflicts = find_conflict_sets(frags, checkset, align, max_work=20_000)
    except EnumerationCapExceeded:
        assume(False)  # ROADMAP item 3: no repair without complete enumeration
    result = repair(conflicts, align)
    assert not exhaustive_incoherence(o1, o2, result.kept)
