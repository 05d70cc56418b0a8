"""Unit checks for the graph primitives against naive recomputation."""

import random

import alignrepair.graphs
from alignrepair.graphs import below_both, iter_bits, tarjan_scc


def naive_reachable(n, adj):
    reach = [set() for _ in range(n)]
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[s] = seen
    return reach


def test_tarjan_two_cycles_and_bridge():
    # 0<->1 -> 2<->3, plus isolated 4
    adj = [[1], [0, 2], [3], [2], []]
    count, comp = tarjan_scc(5, adj)
    assert count == 3
    assert comp[0] == comp[1]
    assert comp[2] == comp[3]
    assert comp[4] not in (comp[0], comp[2])
    # emission order: successors first
    assert comp[2] < comp[0]


def test_condensation_reachability_matches_naive_on_random_graphs():
    """Reachability over the condensation equals node reachability, and
    every condensation edge points to a smaller component id, which the
    single-pass queries over component ids rely on."""
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 40)
        adj = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 3 * n)):
            adj[rng.randrange(n)].append(rng.randrange(n))
        count, comp = tarjan_scc(n, adj)
        cond = [set() for _ in range(count)]
        for u in range(n):
            cond[comp[u]].update(comp[v] for v in adj[u] if comp[v] != comp[u])
        for c, succ in enumerate(cond):
            assert all(d < c for d in succ), (c, succ)
        comp_reach = naive_reachable(count, cond)
        reach = naive_reachable(n, adj)
        for u in range(n):
            for v in range(n):
                expected = v in reach[u]
                got = comp[v] in comp_reach[comp[u]]
                assert got == expected, (u, v)


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


def test_below_both_matches_naive_and_searches_each_member_once(monkeypatch):
    """Random graphs whose pairs share members: each pair's common
    descendants, with extra child lists, are the naive ones, and no
    member's cone is searched twice."""
    rng = random.Random(3)
    real, searched = alignrepair.graphs.reachable, []

    def counted(adj, start, extra=None):
        searched.append(start)
        return real(adj, start, extra)

    monkeypatch.setattr(alignrepair.graphs, "reachable", counted)
    for _ in range(100):
        n = rng.randint(2, 12)
        down = [[v for v in range(n) if v != u and rng.random() < 0.2] for u in range(n)]
        extra = {u: [rng.randrange(n)] for u in range(n) if rng.random() < 0.3}
        merged = [[*down[u], *extra.get(u, ())] for u in range(n)]
        pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)})
        searched.clear()
        reach = naive_reachable(n, merged)
        assert list(below_both(down, pairs, extra)) == [reach[a] & reach[b] for a, b in pairs]
        assert sorted(searched) == sorted({x for pair in pairs for x in pair})
