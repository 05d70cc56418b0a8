"""Independent ground-truth machinery for validating the engine.

Everything here works on the full merged structure with plain adjacency
sets and breadth-first searches; none of the condensation, bitmask, or
fragment machinery is reused, so these functions can serve as oracles
for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

from .model import Alignment, ClassId, Mapping, Ontology, Relation

if TYPE_CHECKING:
    from .conflicts import ConflictSet


@dataclass(frozen=True)
class EvalReport:
    """Alignment quality measures against a reference."""

    precision: float
    recall: float
    f_measure: float


def _merged_adjacency(
    o1: Ontology, o2: Ontology, mappings: Iterable[Mapping]
) -> dict[ClassId, list[ClassId]]:
    down: dict[ClassId, list[ClassId]] = {}
    for onto in (o1, o2):
        for child, parent in onto.subclass_edges:
            down.setdefault(parent, []).append(child)
    for m in mappings:
        if m.relation in (Relation.EQUIVALENCE, Relation.SUBSUMED_BY):
            down.setdefault(m.target, []).append(m.source)
        if m.relation in (Relation.EQUIVALENCE, Relation.SUBSUMES):
            down.setdefault(m.source, []).append(m.target)
    return down


def _reachable_down(
    down: dict[ClassId, list[ClassId]], start: ClassId
) -> set[ClassId]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in down.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def exhaustive_incoherence(
    o1: Ontology, o2: Ontology, alignment: Iterable[Mapping]
) -> set[ClassId]:
    """Every class subsumed by both members of some disjoint pair.

    A class lies under B iff it is downward-reachable from B, so the
    scan intersects the downward cones of each disjoint pair over the
    full merged graph.
    """
    down = _merged_adjacency(o1, o2, alignment)
    incoherent: set[ClassId] = set()
    for a, b in o1.disjointness + o2.disjointness:
        incoherent |= _reachable_down(down, a) & _reachable_down(down, b)
    return incoherent


def brute_force_min_hitting_set(
    conflicts: Sequence[ConflictSet], *, max_mappings: int = 24
) -> tuple[Mapping, ...]:
    """A minimum-cardinality set of mappings intersecting every conflict set.

    Enumerates subsets by increasing size; among minimum-size solutions
    picks the one with the smallest total confidence, then the canonically
    first.  Only usable as a test oracle: refuses more than `max_mappings`
    distinct mappings.
    """
    sets = list(conflicts)
    if not sets:
        return ()
    by_key: dict[tuple, Mapping] = {}
    for s in sets:
        for m in s.mappings:
            by_key.setdefault(m.key, m)
    universe = [by_key[k] for k in sorted(by_key)]
    if len(universe) > max_mappings:
        raise ValueError(
            f"{len(universe)} distinct mappings exceed the oracle cap "
            f"of {max_mappings}"
        )
    index = {m.key: i for i, m in enumerate(universe)}
    set_masks = [
        sum(1 << index[m.key] for m in s.mappings) for s in sets
    ]
    for size in range(0, len(universe) + 1):
        best: tuple[float, tuple, tuple[Mapping, ...]] | None = None
        for combo in combinations(range(len(universe)), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if all(mask & sm for sm in set_masks):
                picked = tuple(universe[i] for i in combo)
                entry = (
                    sum(m.confidence for m in picked),
                    tuple(m.key for m in picked),
                    picked,
                )
                if best is None or entry[:2] < best[:2]:
                    best = entry
        if best is not None:
            return best[2]
    return tuple(universe)  # unreachable: the full universe hits everything


def precision_recall_fmeasure(produced: Alignment, reference: Alignment) -> EvalReport:
    """Precision/recall/F-measure of one alignment against a reference.

    Mapping identity ignores confidence.  Empty denominators score 1.0.
    """
    produced_keys = {m.key for m in produced}
    reference_keys = {m.key for m in reference}
    hits = len(produced_keys & reference_keys)
    precision = hits / len(produced_keys) if produced_keys else 1.0
    recall = hits / len(reference_keys) if reference_keys else 1.0
    f_measure = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return EvalReport(precision=precision, recall=recall, f_measure=f_measure)
