"""A certificate for the conflict list of a realistic instance, judged
only by the oracle.

Criterion 2 checks soundness, minimality and completeness on instances
of at most 60 classes.  Here the instance is M (10,000 classes per side,
2,000 mappings), where an exhaustive check is out of reach:

- Soundness and minimality, per set: its mapping edges put its witness
  under both members of its pair, and the edges of no one-smaller
  subset do.  Each check is one upward search from the witness.
- Completeness, by sampling: a maximal conflict-free subset (insert the
  mappings in a random order, skip one that would complete a set) has a
  minimal hitting set of the list as its complement.  If the list is
  complete, every such subset is coherent, so a draw that the oracle
  finds incoherent names a missing conflict.
"""

import random
from collections import ChainMap

from alignrepair import build_ontology, exhaustive_incoherence
from alignrepair.oracle import _merged_adjacency, _reachable_down

DRAWS = 25
SEED = 14


def _upward(down):
    """Parent lists of the child lists in `down`."""
    up = {}
    for sup, subs in down.items():
        for sub in subs:
            up.setdefault(sub, []).append(sup)
    return up


def test_every_set_is_sound_and_minimal_at_its_witness(m_instance):
    o1, o2, _, analysis = m_instance
    conflicts = analysis.conflicts
    onto_up = _upward(_merged_adjacency(o1, o2, ()))
    # Empty ontologies: the oracle's merged graph of a subset is then
    # its mapping edges alone.
    bare = (build_ontology(1, []), build_ontology(2, []))

    def under_both(mappings, witness, pair):
        extra = _upward(_merged_adjacency(*bare, mappings))
        up = ChainMap({c: [*onto_up.get(c, ()), *ps] for c, ps in extra.items()},
                      onto_up)
        return set(pair) <= _reachable_down(up, witness)

    checks = 0
    for s in conflicts:
        assert under_both(s.mappings, s.witness_class, s.witness_pair), s
        for m in s.mappings:
            assert not under_both(s.mappings - {m}, s.witness_class,
                                  s.witness_pair), (s, m)
        checks += 1 + len(s)
    assert len(conflicts) > 400
    print(f"CERTIFICATE PASS: {len(conflicts)} sets, {checks} witness checks")


def test_maximal_conflict_free_subsets_are_coherent(m_instance):
    o1, o2, produced, analysis = m_instance
    conflicts = analysis.conflicts
    sets_of = {}
    for s in conflicts:
        for m in s.mappings:
            sets_of.setdefault(m, []).append(s.mappings)
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        order = list(produced)
        rng.shuffle(order)
        kept = set()
        for m in order:
            if not any(other - {m} <= kept for other in sets_of.get(m, ())):
                kept.add(m)
        assert len(kept) < len(produced)
        assert exhaustive_incoherence(o1, o2, kept) == set()
