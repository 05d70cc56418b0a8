"""Directed-graph primitives: components, cones and the incoherence test.

All functions work on integer node ids 0..n-1 with adjacency lists.
`tarjan_scc` gives the components of the merged graph; its component
ids are a reverse topological order, so on child lists every component
comes after its children.  An ontology is ordered by Kahn's algorithm
on its child lists instead, and Tarjan's components only name a class
on a cycle when Kahn's order stops short.  `reachable` gives
the cone of a node: every node reachable from it over the lists it is
handed, so parent lists give ancestors and child lists give
descendants.  `below_both` is the one incoherence test: the nodes
under both members of each disjoint pair.  No all-pairs closure is
built: reachability is answered by these searches or by passes over
component ids, whose cost grows with the edges visited.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def tarjan_scc(n: int, adj: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Strongly connected components, iteratively (no recursion limit).

    Returns (count, comp) where comp[v] is the component id of node v.
    Component ids follow Tarjan's emission order: if a node of component
    x has an edge into a different component y, then y < x.  A pass
    over descending ids therefore meets every component before its
    successors, and an ascending pass meets successors first.
    """
    UNVISITED = -1
    index = [UNVISITED] * n
    low = [0] * n
    stack: list[int] = []
    comp = [UNVISITED] * n
    count = 0
    counter = 0

    for root in range(n):
        if index[root] != UNVISITED:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # Each frame keeps the iterator over its node's remaining edges.
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == UNVISITED:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                # a visited node is on the stack until its component is set
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return count, comp


def reachable(
    adj: Sequence[Sequence[int]], start: int, extra: dict[int, list[int]] | None = None
) -> set[int]:
    """Nodes reachable from `start`, itself included, over the lists in
    `adj` plus, for the nodes that have one, their list in `extra`."""
    extra = extra or {}
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in [*adj[u], *extra[u]] if u in extra else adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def below_both(down: Sequence[Sequence[int]], pairs: Sequence[tuple[int, int]],
               extra: dict[int, list[int]] | None = None) -> Iterator[set[int]]:
    """For each (a, b) of `pairs`, in order, the nodes below both over the
    child lists `down` plus `extra`.  A member's cone is searched once
    and dropped after the last pair that names it."""
    last = {x: i for i, pair in enumerate(pairs) for x in pair}
    cones: dict[int, set[int]] = {}
    for i, (a, b) in enumerate(pairs):
        for x in (a, b):
            if x not in cones:
                cones[x] = reachable(down, x, extra)
        yield cones[a] & cones[b]
        for x in (a, b):
            if last[x] == i:
                del cones[x]


def iter_bits(mask: int):
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
