"""Seed-deterministic synthetic matching instances.

Builds two tree-like hierarchies (ontology 2 mirrors ontology 1's tree
shape, each side gets its own cross-links), samples disjoint pairs with
provably disjoint descendant cones, derives a reference alignment from
the structural correspondence, and layers lower-confidence noise
mappings on top.  Most noise endpoints are drawn from the descendant
cones of disjoint pairs so that wrong mappings actually produce
incoherence; the rest are uniform.  Every draw flows from one seeded
RNG, so identical parameters produce identical instances.  For fixed
mapping and pair counts, time grows linearly with the class count.

Class names are zero-padded, so name order is index order and a node
index is the class's local id: each side's names are made once, and
every draw indexes its ontologies from int edges and the child lists
its disjoint-pair sampler built, without building or resolving name
pairs.  The reference check counts incoherent classes by id and never
builds the merged view's parent lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from .graphs import reachable
from .model import (
    Alignment,
    ClassId,
    GeneratorError,
    Mapping,
    Ontology,
    Relation,
    _index_ontology,
    merged_view,
)

CROSS_LINK_FRACTION = 0.05
TARGETED_NOISE_PROB = 0.65
REDRAW_ATTEMPTS = 50
PLACEMENT_ATTEMPTS = 400


@dataclass(frozen=True)
class GeneratorParams:
    classes_per_side: int
    mapping_count: int
    disjoint_pairs: int = 2
    noise_rate: float = 0.0
    seed: int = 0
    max_depth: int = 10
    branching: float = 2.0

    def __post_init__(self) -> None:
        if self.classes_per_side < 1:
            raise ValueError("classes_per_side must be positive")
        if self.mapping_count < 0 or self.disjoint_pairs < 0:
            raise ValueError("counts must be nonnegative")
        if self.mapping_count > self.classes_per_side:
            raise ValueError("mapping_count cannot exceed classes_per_side")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if not 0 < self.branching < math.inf:
            raise ValueError("branching must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class _Side:
    ontology: Ontology
    cone: Callable[[int], set[int]]  # node index -> its descendants, memoized
    pair_indices: list[tuple[int, int]]


def _tree_parents(rng: random.Random, params: GeneratorParams) -> list[int]:
    """Parent index per node (node 0 is the root), respecting max_depth."""
    n = params.classes_per_side
    chain_bias = min(1.0, 1.0 / params.branching)
    parents = [-1] * n
    depth = [0] * n
    # Nodes below the depth limit, in index order; a depth never changes
    # once set, so this list only grows.  It always holds the root.
    shallow = [0]
    for i in range(1, n):
        if rng.random() < chain_bias:
            p = i - 1
        else:
            p = rng.randrange(i)
        if depth[p] >= params.max_depth:
            p = rng.choice(shallow)
        parents[i] = p
        depth[i] = depth[p] + 1
        if depth[i] < params.max_depth:
            shallow.append(i)
    return parents


def _cross_links(
    rng: random.Random, n: int, parents: list[int]
) -> list[tuple[int, int]]:
    """Extra child->parent edges toward earlier nodes (keeps the DAG),
    each distinct from the tree edges and from one another."""
    links: list[tuple[int, int]] = []
    drawn: set[tuple[int, int]] = set()
    target = max(0, round(n * CROSS_LINK_FRACTION))
    attempts = 0
    while len(links) < target and attempts < target * 20 + 20:
        attempts += 1
        child = rng.randrange(1, n)
        parent = rng.randrange(0, child)
        if parent == parents[child] or (child, parent) in drawn:
            continue
        drawn.add((child, parent))
        links.append((child, parent))
    return links


def _sample_disjoint_pairs(
    rng: random.Random,
    n: int,
    children: list[list[int]],
    cone: Callable[[int], set[int]],
    count: int,
) -> list[tuple[int, int]]:
    """Sibling/cousin pairs whose descendant cones do not overlap."""
    if count == 0:
        return []
    parents_with_kids = [v for v in range(n) if len(children[v]) >= 2]
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(count * 50 + PLACEMENT_ATTEMPTS):
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
        if not cone(a).isdisjoint(cone(b)):
            continue
        seen.add(pair)
        pairs.append(pair)
    if len(pairs) < count:
        raise GeneratorError(
            f"could not place {count} disjoint pairs with disjoint cones "
            f"in {n} classes (placed {len(pairs)})"
        )
    return pairs


def _side_names(n: int, side: int) -> list[str]:
    """Class names of one side, zero-padded so that name order is index
    order: index i is also the class's local id."""
    width = max(4, len(str(n - 1)))
    prefix = "a" if side == 1 else "b"
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _build_side(
    rng: random.Random,
    params: GeneratorParams,
    side: int,
    names: list[str],
    index: dict[str, int],
    parents: list[int],
    disjoint_count: int,
) -> _Side:
    n = params.classes_per_side
    edges = [(i, parents[i]) for i in range(1, n)]
    edges += _cross_links(rng, n, parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for child, parent in edges:
        children[parent].append(child)
    cone = cache(partial(reachable, children))
    pair_indices = _sample_disjoint_pairs(rng, n, children, cone, disjoint_count)
    # The indexer orders and checks the ontology with these same lists.
    ontology = _index_ontology(side, names, index, edges, pair_indices, children)
    return _Side(ontology, cone, pair_indices)


def _targeted_endpoints(
    rng: random.Random,
    side1: _Side,
    side2: _Side,
    mapped: set[int],
) -> tuple[int, int] | None:
    """Pick (i, j) so a wrong mapping a_i ~ b_j lands a class under both
    members of some disjoint pair via one reference mapping."""
    sided_pairs = [(1, p) for p in side1.pair_indices] + [
        (2, p) for p in side2.pair_indices
    ]
    if not sided_pairs:
        return None
    side, (u, v) = sided_pairs[rng.randrange(len(sided_pairs))]
    if rng.random() < 0.5:
        u, v = v, u
    holder = side1 if side == 1 else side2
    cone_u = sorted(holder.cone(u))
    mapped_in_v = [k for k in sorted(holder.cone(v)) if k in mapped]
    if not mapped_in_v:
        return None
    x = cone_u[rng.randrange(len(cone_u))]
    k = mapped_in_v[rng.randrange(len(mapped_in_v))]
    # One leg sits below u directly (index x); the other leads below v
    # through the reference mapping at index k.  Cones of a pair never
    # intersect, so x != k and the mapping is genuinely wrong.
    if side == 1:
        return (x, k)
    return (k, x)


def _noise_mappings(
    rng: random.Random,
    params: GeneratorParams,
    side1: _Side,
    side2: _Side,
    mapped: set[int],
    taken: set[tuple],
) -> list[Mapping]:
    count = round(params.mapping_count * params.noise_rate)
    n = params.classes_per_side
    o1, o2 = side1.ontology, side2.ontology
    relations = (Relation.EQUIVALENCE, Relation.SUBSUMED_BY, Relation.SUBSUMES)
    noise: list[Mapping] = []
    attempts = 0
    while len(noise) < count and attempts < count * 30 + PLACEMENT_ATTEMPTS:
        attempts += 1
        pick: tuple[int, int] | None = None
        if rng.random() < TARGETED_NOISE_PROB:
            pick = _targeted_endpoints(rng, side1, side2, mapped)
        if pick is None:
            pick = (rng.randrange(n), rng.randrange(n))
        i, j = pick
        if i == j:
            continue  # structurally corresponding, not "wrong"
        relation = relations[rng.randrange(3)]
        confidence = round(rng.uniform(0.2, 0.7), 6)
        m = Mapping(ClassId(o1.names[i], 1), ClassId(o2.names[j], 2),
                    relation, confidence)
        if m.key in taken:
            continue
        taken.add(m.key)
        noise.append(m)
    if len(noise) < count:
        raise GeneratorError(
            f"could not place {count} noise mappings (placed {len(noise)})"
        )
    return noise


def generate_instance(
    params: GeneratorParams,
) -> tuple[Ontology, Ontology, Alignment, Alignment]:
    """Returns (ontology1, ontology2, produced, reference).

    The reference alignment is redrawn until it is conflict-free against
    the generated hierarchies; the produced alignment is the reference
    plus noise mappings and may be incoherent (that is the point).
    """
    rng = random.Random(params.seed)
    disjoints_side1 = (params.disjoint_pairs + 1) // 2
    disjoints_side2 = params.disjoint_pairs // 2
    names = [_side_names(params.classes_per_side, side) for side in (1, 2)]
    indexes = [{name: i for i, name in enumerate(ns)} for ns in names]
    for _ in range(REDRAW_ATTEMPTS):
        parents = _tree_parents(rng, params)
        try:
            side1 = _build_side(rng, params, 1, names[0], indexes[0], parents,
                                disjoints_side1)
            side2 = _build_side(rng, params, 2, names[1], indexes[1], parents,
                                disjoints_side2)
        except GeneratorError:
            continue
        o1, o2 = side1.ontology, side2.ontology
        mapped = sorted(
            rng.sample(range(params.classes_per_side), params.mapping_count)
        )
        reference = Alignment(
            Mapping(ClassId(names[0][i], 1), ClassId(names[1][i], 2),
                    Relation.EQUIVALENCE, 1.0)
            for i in mapped
        )
        if not merged_view(o1, o2, reference).incoherent_ids():
            taken = {m.key for m in reference}
            noise = _noise_mappings(
                rng, params, side1, side2, set(mapped), taken
            )
            produced = Alignment(list(reference) + noise)
            return o1, o2, produced, reference
    raise GeneratorError(
        f"no coherent reference alignment after {REDRAW_ATTEMPTS} draws "
        f"(params: {params})"
    )
