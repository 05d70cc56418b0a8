"""Directed-graph primitives: one ordering pass and one cone search.

All functions work on integer node ids 0..n-1 with adjacency lists.
`tarjan_scc` gives the components, the condensation (with
`condensation_edges`), a topological order and the cycle check, since
its component ids are a reverse topological order.  `reachable` gives
the cone of a node: every node reachable from it over the lists it is
handed, so parent lists give ancestors and child lists give
descendants.  No all-pairs closure is built: reachability is answered
by these searches or by passes over component ids, whose cost grows
with the edges visited.
"""

from __future__ import annotations

from typing import Sequence


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
    on_stack = bytearray(n)
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
        on_stack[root] = 1
        # Each frame keeps the iterator over its node's remaining edges.
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == UNVISITED:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return count, comp


def condensation_edges(
    n: int, adj: Sequence[Sequence[int]], comp: list[int], count: int
) -> list[list[int]]:
    """Deduplicated successor lists between components (self-loops dropped)."""
    succ: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        cv = comp[v]
        for w in adj[v]:
            cw = comp[w]
            if cw != cv:
                succ[cv].append(cw)
    return [sorted(set(s)) if len(s) > 1 else s for s in succ]


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


def iter_bits(mask: int):
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
