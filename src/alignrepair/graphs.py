"""Directed-graph primitives: SCC condensation, topological order and
upward reachability.

All functions work on integer node ids 0..n-1 with adjacency lists.
No all-pairs closure is built: reachability is answered by searches or
by passes over these orders, whose cost grows with the edges visited.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


def tarjan_scc(n: int, adj: list[list[int]]) -> tuple[int, list[int]]:
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
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            neighbors = adj[v]
            for i in range(edge_pos, len(neighbors)):
                w = neighbors[i]
                if index[w] == UNVISITED:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
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
    n: int, adj: list[list[int]], comp: list[int], count: int
) -> list[list[int]]:
    """Deduplicated successor lists between components (self-loops dropped)."""
    succ: list[set[int]] = [set() for _ in range(count)]
    for v in range(n):
        cv = comp[v]
        for w in adj[v]:
            cw = comp[w]
            if cw != cv:
                succ[cv].add(cw)
    return [sorted(s) for s in succ]


def dag_order_roots_first(n: int, parents: list[list[int]]) -> list[int] | None:
    """Topological order with every parent before its children.

    `parents[v]` lists the direct parents of v.  Returns None when the
    parent relation is cyclic.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    pending = [0] * n
    for v in range(n):
        seen = set(parents[v])
        pending[v] = len(seen)
        for p in seen:
            children[p].append(v)
    queue = deque(v for v in range(n) if pending[v] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for c in children[v]:
            pending[c] -= 1
            if pending[c] == 0:
                queue.append(c)
    if len(order) != n:
        return None
    return order


def reaches_upward(
    parents: Sequence[Sequence[int]], source: int, target: int, floor: int = 0
) -> bool:
    """True iff `target` is `source` or one of its ancestors.

    Searches the parent lists upward without entering ids below `floor`.
    Where every parent has a smaller id than its children, pass the
    target as the floor: nothing below it can reach back up to it.
    """
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        if u == target:
            return True
        for p in parents[u]:
            if p >= floor and p not in seen:
                seen.add(p)
                stack.append(p)
    return False


def iter_bits(mask: int):
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
