"""Acceptance criteria.

Each test prints one PASS line (visible with `pytest -s` or `-rP`); a
failure of any assertion is the corresponding FAIL.  Criteria 1-3 share
one batch of 300 seeded instances; criterion 4 uses 500 abstract
conflict systems; 6-8 are scale and determinism budgets.
"""

import itertools
import json
import random
import resource
import time

import pytest
from hypothesis import assume, event, given, settings

from alignrepair import (
    Alignment,
    ConflictList,
    EnumerationCapExceeded,
    GeneratorParams,
    RemovalCause,
    RepairConfig,
    analyze,
    brute_force_min_hitting_set,
    exhaustive_incoherence,
    extract_core_fragments,
    find_conflict_sets,
    fragments_incoherent,
    generate_instance,
    repair,
    repair_alignment,
)
from alignrepair.cli import cli_dispatch

import conftest
from conftest import (
    antichain,
    equivalence_only,
    filter_list,
    generated_instances,
    mk_mapping,
    mk_set,
)
from instances import INSTANCES, gen_args

N_INSTANCES = 300
E_INSTANCES = 100
SUBSET_SAMPLES = 50
ALL_SUBSETS_UP_TO = 10


def _params(i: int) -> GeneratorParams:
    rng = random.Random(310_000 + i)
    classes = rng.randint(10, 60)
    return GeneratorParams(
        classes_per_side=classes,
        mapping_count=rng.randint(3, min(15, classes)),
        disjoint_pairs=rng.randint(1, 4),
        noise_rate=rng.choice([0.2, 0.3, 0.4, 0.6]),
        seed=37_000 + i,
        max_depth=rng.randint(3, 10),
        branching=rng.choice([1.2, 2.0, 3.0]),
    )


def _subsets(i: int, alignment: Alignment) -> list[frozenset]:
    """The mapping subsets checked on instance i: all of them for a small
    alignment, a seeded sample otherwise."""
    maps = list(alignment)
    if len(maps) <= ALL_SUBSETS_UP_TO:
        return [
            frozenset(c)
            for r in range(len(maps) + 1)
            for c in itertools.combinations(maps, r)
        ]
    rng = random.Random(95_000 + i)
    return [
        frozenset(m for m in maps if rng.random() < 0.5)
        for _ in range(SUBSET_SAMPLES)
    ]


@pytest.fixture(scope="module")
def batch():
    """(instance, fragments, conflicts, subsets) for the 300 shared runs."""
    out = []
    for i in range(N_INSTANCES):
        o1, o2, produced, reference = generate_instance(_params(i))
        analysis = analyze(o1, o2, produced)
        frags, conflicts = analysis.fragments, analysis.conflicts
        out.append(((o1, o2, produced, reference), frags, conflicts,
                    _subsets(i, produced)))
    return out


def test_criterion_1_fragment_detection_equivalence(batch):
    """Fragment-level detection agrees with the exhaustive oracle on every
    sampled mapping subset of every instance."""
    start = time.perf_counter()
    checked = 0
    agree = 0
    for (o1, o2, _, _), frags, _, subsets in batch:
        for sub in subsets:
            checked += 1
            exact = len(exhaustive_incoherence(o1, o2, sub)) > 0
            flagged = fragments_incoherent(frags, sub)
            if exact == flagged:
                agree += 1
    elapsed = time.perf_counter() - start
    assert agree == checked, f"{checked - agree} disagreements of {checked}"
    assert elapsed < 120, f"suite took {elapsed:.1f}s (budget 120s)"
    print(
        f"ACCEPTANCE 1 PASS: fragment/exhaustive agreement {agree}/{checked} "
        f"subsets across {len(batch)} instances in {elapsed:.1f}s"
    )


def _check_sound_minimal_complete(o1, o2, conflicts, subsets) -> int:
    """Assert that every set reproduces its witness and no proper subset
    does, and that the sets flag exactly the incoherent subsets; returns
    the number of sets."""
    for s in conflicts:
        a = s.witness_class
        incoherent = exhaustive_incoherence(o1, o2, s.mappings)
        assert a in incoherent, "emitted set fails to reproduce witness"
        for m in s.mappings:
            rest = exhaustive_incoherence(o1, o2, s.mappings - {m})
            assert a not in rest, "proper subset still incoherent at witness"
    contents = [frozenset(s.mappings) for s in conflicts]
    for sub in subsets:
        exact = len(exhaustive_incoherence(o1, o2, sub)) > 0
        flagged = any(cs <= sub for cs in contents)
        assert exact == flagged, "containment test disagrees with the oracle"
    return len(conflicts)


def test_criterion_2_conflict_sets_sound_minimal_complete(batch):
    sets = checked = 0
    for (o1, o2, _, _), _, conflicts, subsets in batch:
        sets += _check_sound_minimal_complete(o1, o2, conflicts, subsets)
        checked += len(subsets)
    print(
        f"ACCEPTANCE 2 PASS: {sets} sets sound and minimal, "
        f"containment test {checked}/{checked}"
    )


def test_equivalence_only_copies_sound_minimal_complete_and_repaired():
    """ROADMAP item 22's E transform of the first 100 batch instances:
    criterion 2's checks hold, and the default repair is coherent."""
    sets = 0
    for i in range(E_INSTANCES):
        o1, o2, produced, _ = generate_instance(_params(i))
        aligned = equivalence_only(produced)
        run = repair_alignment(o1, o2, aligned, RepairConfig())
        sets += _check_sound_minimal_complete(
            o1, o2, run.analysis.conflicts, _subsets(i, aligned)
        )
        assert exhaustive_incoherence(o1, o2, run.result.kept) == set()
    print(f"E PASS: {sets} sets sound, minimal and complete over "
          f"{E_INSTANCES} instances, every repair coherent")


@settings(max_examples=200, deadline=None)
@given(generated_instances())
def test_equivalence_only_draws_sound_minimal_complete_and_repaired(instance):
    """The E transform of Hypothesis draws, where the search finishes
    within 20,000 steps: criterion 2's checks hold, and the default
    repair is coherent.  Draws that trip the cap, like ROADMAP T, are
    rejected and counted until item 24 repairs them."""
    o1, o2, produced = instance
    aligned = equivalence_only(produced)
    frags = extract_core_fragments(o1, o2, aligned)
    try:
        conflicts = find_conflict_sets(frags, (), aligned, max_work=20_000)
    except EnumerationCapExceeded:
        event("enumeration cap trip")
        assume(False)
    _check_sound_minimal_complete(o1, o2, conflicts, _subsets(0, aligned))
    assert exhaustive_incoherence(o1, o2, repair(conflicts, aligned).kept) == set()


def test_roadmap_t_trips_the_default_cap():
    """ROADMAP T, the smallest known cap trip (94 mappings), stops at a
    witness's path pairs: the table row's error line.  Item 24 turns
    this into a repair."""
    row = INSTANCES["T"]
    o1, o2, produced, _ = generate_instance(GeneratorParams(*row.fields))
    aligned = getattr(conftest, row.transform)(produced)
    assert len(aligned) == 94
    with pytest.raises(EnumerationCapExceeded) as trip:
        analyze(o1, o2, aligned)
    assert f"error: {trip.value}" == row.expect


def test_criterion_3_repair_correct_across_config_grid(batch):
    grid = [
        RepairConfig(epsilon=-1.0, search_depth=d, use_clusters=c)
        for d in (0, 2)
        for c in (True, False)
    ]
    runs = 0
    for (o1, o2, produced, _), _, conflicts, _ in batch:
        for config in grid:
            result = repair(conflicts, produced, config)
            assert exhaustive_incoherence(o1, o2, result.kept) == set()
            live = list(conflicts)
            for r in result.removed:
                assert r.cause is RemovalCause.GREEDY
                assert any(r.mapping in s.mappings for s in live), (
                    "removed mapping hit no unresolved conflict set"
                )
                live = [s for s in live if r.mapping not in s.mappings]
            assert not live
            runs += 1
    print(
        f"ACCEPTANCE 3 PASS: {runs} repairs coherent with no gratuitous "
        f"removals ({len(batch)} instances x {len(grid)} configs)"
    )


def test_criterion_4_near_optimality_with_depth_three():
    instances = 500
    optimal = 0
    worst_excess = 0
    for i in range(instances):
        rng = random.Random(47_000 + i)
        n_maps = rng.randint(3, 12)
        maps = [mk_mapping(j) for j in range(n_maps)]
        sets = []
        seen = set()
        for _ in range(rng.randint(2, 20)):
            members = frozenset(
                rng.sample(maps, rng.randint(2, min(4, n_maps)))
            )
            if members in seen:
                continue
            seen.add(members)
            sets.append(mk_set(*members))
        conflicts = ConflictList(antichain(sets))
        if not len(conflicts):
            optimal += 1
            continue
        result = repair(
            conflicts,
            Alignment(maps),
            RepairConfig(epsilon=-1.0, search_depth=3, use_clusters=True),
        )
        excess = len(result.removed) - len(
            brute_force_min_hitting_set(conflicts.sets)
        )
        assert excess >= 0
        assert excess <= 2, f"instance {i}: excess {excess}"
        worst_excess = max(worst_excess, excess)
        if excess == 0:
            optimal += 1
    rate = optimal / instances
    assert rate >= 0.80, f"optimal on only {rate:.1%}"
    print(
        f"ACCEPTANCE 4 PASS: greedy optimal on {optimal}/{instances} "
        f"({rate:.1%}), worst excess {worst_excess}"
    )


def test_criterion_5_filter_rule_bit_exact(f2):
    hi, lo = mk_mapping(1, 0.9), mk_mapping(2, 0.5)
    single = ConflictList([mk_set(hi, lo)])

    remaining, removed = filter_list(single, 0.1)
    assert removed == [lo] and len(remaining) == 0

    remaining, removed = filter_list(single, 0.25)
    assert removed == [] and len(remaining) == 1

    remaining, removed = filter_list(f2.conflicts, 0.05)
    assert removed == [f2.m4, f2.m1] and len(remaining) == 0
    print("ACCEPTANCE 5 PASS: filter rule exact on both epsilon fixtures "
          "and the three-set trace")


def test_criterion_6_fragment_reduction_at_scale():
    o1, o2, produced, _ = generate_instance(GeneratorParams(*INSTANCES["S"].fields))
    start = time.perf_counter()
    frags = extract_core_fragments(o1, o2, produced)
    elapsed = time.perf_counter() - start
    total = len(o1) + len(o2)
    core_pct = 100 * len(frags.core) / total
    checkset_pct = 100 * len(frags.checkset) / total
    assert core_pct < 20, f"core fragments {core_pct:.1f}%"
    assert checkset_pct < 15, f"checkset {checkset_pct:.1f}%"
    assert elapsed < 10, f"extraction took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 6 PASS: core {core_pct:.1f}% / checkset "
        f"{checkset_pct:.1f}% of {total} classes, extracted in {elapsed:.1f}s"
    )


def test_criterion_7_engineering_budget():
    o1, o2, produced, _ = generate_instance(GeneratorParams(*INSTANCES["M"].fields))
    start = time.perf_counter()
    run = repair_alignment(o1, o2, produced, RepairConfig())
    elapsed = time.perf_counter() - start
    conflicts, result = run.analysis.conflicts, run.result
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert list(run.phases) == ["merge", "fragments", "conflicts", "repair", "verify"]
    assert 200 <= len(conflicts) <= 900, f"{len(conflicts)} conflict sets"
    assert run.incoherent_after == 0
    assert elapsed < 60, f"end-to-end repair took {elapsed:.1f}s"
    assert peak_gb < 4.0, f"peak RSS {peak_gb:.2f} GB"
    print(
        f"ACCEPTANCE 7 PASS: {len(conflicts)} conflict sets, "
        f"{len(result.removed)} removals, coherent output in {elapsed:.1f}s, "
        f"peak {peak_gb:.2f} GB"
    )


def test_criterion_8_cli_pipeline_byte_determinism(tmp_path):
    blobs = []
    for run in ("first", "second"):
        d = tmp_path / run
        assert cli_dispatch(
            ["gen", *gen_args(INSTANCES["readme"]), "--out-dir", str(d)]
        ) == 0
        assert cli_dispatch(
            ["repair",
             "--onto1", str(d / "onto1.txt"),
             "--onto2", str(d / "onto2.txt"),
             "--align", str(d / "produced.tsv"),
             "--out", str(d / "repaired.tsv"),
             "--report", str(d / "report.json")]
        ) == 0
        blobs.append(
            {
                name: (d / name).read_bytes()
                for name in ("onto1.txt", "onto2.txt", "produced.tsv",
                              "reference.tsv", "params.json", "repaired.tsv",
                              "report.json")
            }
        )
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0]["report.json"])
    assert report["incoherent"]["after"] == 0
    print(
        "ACCEPTANCE 8 PASS: gen+repair pipeline byte-identical across runs "
        f"({len(blobs[0])} artifacts compared)"
    )
