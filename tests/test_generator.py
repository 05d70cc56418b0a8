"""Generator determinism, coherence contracts, and the pinned regression
instance used throughout development."""

import random
import time
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrepair import (
    GeneratorParams,
    RepairConfig,
    analyze,
    exhaustive_incoherence,
    generate_instance,
    precision_recall_fmeasure,
    repair,
    repair_alignment,
    write_alignment_tsv,
    write_ontology_file,
)
from alignrepair.generator import (
    GeneratorError,
    _cross_links,
    _sample_disjoint_pairs,
    _tree_parents,
)
from alignrepair.graphs import reachable


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
        run = repair_alignment(o1, o2, produced, RepairConfig())
        assert run.analysis.incoherent_before == 5
        assert len(run.analysis.conflicts) == 2
        result = run.result
        assert [r.mapping.key for r in result.removed] == [
            ("a0002", "b0002", "=")
        ]
        assert exhaustive_incoherence(o1, o2, result.kept) == set()
        ev = precision_recall_fmeasure(result.kept, reference)
        assert ev.precision == pytest.approx(0.75)
        assert ev.recall == pytest.approx(0.9)


def _rescanning_tree_parents(rng, params):
    """The earlier `_tree_parents`: rescans every earlier node for a
    shallow one whenever the drawn parent is at the depth limit."""
    n = params.classes_per_side
    chain_bias = min(1.0, 1.0 / params.branching)
    parents = [-1] * n
    depth = [0] * n
    for i in range(1, n):
        if rng.random() < chain_bias:
            p = i - 1
        else:
            p = rng.randrange(i)
        if depth[p] >= params.max_depth:
            shallow = [v for v in range(i) if depth[v] < params.max_depth]
            p = rng.choice(shallow) if shallow else 0
        parents[i] = p
        depth[i] = depth[p] + 1
    return parents


def _descendant_set_pairs(rng, n, children, count):
    """The earlier `_sample_disjoint_pairs`, which tested each candidate
    against descendant sets built for all n nodes."""
    if count == 0:
        return []
    desc = [set() for _ in range(n)]
    # Nodes only point at smaller indices, so descending order is bottom-up.
    for v in range(n - 1, -1, -1):
        s = {v}
        for c in children[v]:
            s |= desc[c]
        desc[v] = s
    parents_with_kids = [v for v in range(n) if len(children[v]) >= 2]
    pairs, seen = [], set()
    for _ in range(count * 50 + 400):
        if len(pairs) >= count:
            break
        if parents_with_kids and rng.random() < 0.8:
            w = rng.choice(parents_with_kids)
            a, b = rng.sample(children[w], 2)
        else:
            a = rng.randrange(n)
            b = rng.randrange(n)
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        if desc[a] & desc[b]:
            continue
        seen.add(pair)
        pairs.append(pair)
    if len(pairs) < count:
        raise GeneratorError("too few pairs")
    return pairs


tree_params = st.builds(
    lambda n, seed, max_depth, branching: GeneratorParams(
        n, 0, 0, 0.0, seed, max_depth, branching
    ),
    st.integers(1, 300),
    st.integers(0, 2**64 - 1),
    st.integers(1, 6),
    st.floats(0.5, 3.0),
)


@settings(max_examples=150, deadline=None)
@given(tree_params)
def test_tree_parents_match_the_rescanning_loop(params):
    """Same parents from the same number of draws."""
    ours, ref = random.Random(params.seed), random.Random(params.seed)
    assert _tree_parents(ours, params) == _rescanning_tree_parents(ref, params)
    assert ours.getstate() == ref.getstate()


@settings(max_examples=150, deadline=None)
@given(tree_params, st.integers(0, 20))
def test_disjoint_pairs_match_the_descendant_set_predicate(params, count):
    """Same pairs, or the same failure, from the same number of draws."""
    rng = random.Random(params.seed)
    n = params.classes_per_side
    parents = _tree_parents(rng, params)
    edges = [(i, parents[i]) for i in range(1, n)] + _cross_links(rng, n, parents)
    children = [[] for _ in range(n)]
    for child, parent in edges:
        children[parent].append(child)
    ours, ref = random.Random(params.seed), random.Random(params.seed)

    def outcome(sample, *args):
        try:
            return sample(*args)
        except GeneratorError:
            return None

    cone = cache(partial(reachable, children))
    assert outcome(_sample_disjoint_pairs, ours, n, children, cone, count) == outcome(
        _descendant_set_pairs, ref, n, children, count
    )
    assert ours.getstate() == ref.getstate()


def test_tree_parents_at_depth_one_is_linear():
    """At max_depth 1 every non-root draw hits the depth limit; rescanning
    the earlier nodes there took about 29 s at this size."""
    params = GeneratorParams(50_000, 0, 0, 0.0, 1, max_depth=1)
    start = time.perf_counter()
    parents = _tree_parents(random.Random(params.seed), params)
    assert time.perf_counter() - start < 5.0
    assert set(parents[1:]) == {0}
