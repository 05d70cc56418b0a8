"""Directed-graph primitives: SCC condensation, topological order and
upward reachability.

All functions work on integer node ids 0..n-1 with adjacency lists.
No all-pairs closure is built: reachability is answered by searches or
by passes over these orders, whose cost grows with the edges visited.
"""

from __future__ import annotations

from collections import deque
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


def dag_order_roots_first(n: int, parents: Sequence[Sequence[int]]) -> list[int] | None:
    """Topological order with every parent before its children.

    `parents[v]` lists the distinct direct parents of v.  Returns None
    when the parent relation is cyclic.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    pending = [len(ps) for ps in parents]
    for v, ps in enumerate(parents):
        for p in ps:
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
