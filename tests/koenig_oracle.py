"""Frozen recursive Koenig coloring: the differential oracle of the kernel.

This is the textbook recursion the library's flat-array kernel replaced,
kept verbatim in behavior (Euler split by Hierholzer circuits, one
Hopcroft–Karp perfect matching per odd level, one rebuilt edge list per
subgraph) and self-contained, so a change to the library can never move
the oracle with it.  The kernel must reproduce these colors edge for edge:
with lanes > 1 the packet counts of the routing primitives depend on them.

Graphs are ``(side, edges)`` with ``edges`` a list of ``(left, right)``
pairs on ``side`` vertices per side.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]
INF = float("inf")


def oracle_coloring(side: int, edges: Sequence[Edge], degree: int) -> List[int]:
    """Colors ``0..degree-1`` of a ``degree``-regular bipartite multigraph."""
    colors: List[Optional[int]] = [None] * len(edges)
    _color_regular(side, list(edges), list(range(len(edges))), degree, 0, colors)
    assert all(c is not None for c in colors)
    return colors  # type: ignore[return-value]


def _color_regular(
    side: int,
    edges: List[Edge],
    back: List[int],
    d: int,
    base_color: int,
    colors: List[Optional[int]],
) -> None:
    if d == 0 or not edges:
        return
    if d == 1:
        for i in range(len(edges)):
            colors[back[i]] = base_color
        return
    if d % 2 == 1:
        matching = oracle_perfect_matching(side, edges)
        matched = set(matching)
        for i in matching:
            colors[back[i]] = base_color
        rest = [i for i in range(len(edges)) if i not in matched]
        _color_regular(
            side, [edges[i] for i in rest], [back[i] for i in rest],
            d - 1, base_color + 1, colors,
        )
        return
    half = d // 2
    part_a, part_b = oracle_euler_split(side, side, edges)
    _color_regular(
        side, [edges[i] for i in part_a], [back[i] for i in part_a],
        half, base_color, colors,
    )
    _color_regular(
        side, [edges[i] for i in part_b], [back[i] for i in part_b],
        half, base_color + half, colors,
    )


def oracle_euler_split(
    left_size: int, right_size: int, edges: Sequence[Edge]
) -> Tuple[List[int], List[int]]:
    offset = left_size
    num_vertices = left_size + right_size
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((offset + v, idx))
        adj[offset + v].append((u, idx))
    used = [False] * len(edges)
    ptr = [0] * num_vertices
    half_a: List[int] = []
    half_b: List[int] = []
    for start in range(num_vertices):
        while ptr[start] < len(adj[start]):
            circuit_edges = _trace_circuit(start, adj, used, ptr)
            if not circuit_edges:
                break
            assert len(circuit_edges) % 2 == 0
            for i, edge_idx in enumerate(circuit_edges):
                (half_a if i % 2 == 0 else half_b).append(edge_idx)
    return half_a, half_b


def _trace_circuit(
    start: int,
    adj: List[List[Tuple[int, int]]],
    used: List[bool],
    ptr: List[int],
) -> List[int]:
    stack: List[int] = [start]
    edge_stack: List[int] = [-1]
    circuit: List[int] = []
    while stack:
        v = stack[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            to, edge_idx = adj[v][ptr[v]]
            if used[edge_idx]:
                ptr[v] += 1
                continue
            used[edge_idx] = True
            ptr[v] += 1
            stack.append(to)
            edge_stack.append(edge_idx)
            advanced = True
            break
        if not advanced:
            stack.pop()
            entering = edge_stack.pop()
            if entering >= 0:
                circuit.append(entering)
    circuit.reverse()
    return circuit


def oracle_maximum_matching(
    left_size: int, right_size: int, edges: Sequence[Edge]
) -> List[int]:
    rep: Dict[Tuple[int, int], int] = {}
    for idx, (u, v) in enumerate(edges):
        if (u, v) not in rep:
            rep[(u, v)] = idx
    simple_adj: List[List[int]] = [[] for _ in range(left_size)]
    for (u, v) in sorted(rep):
        simple_adj[u].append(v)

    match_left: List[Optional[int]] = [None] * left_size
    match_right: List[Optional[int]] = [None] * right_size
    dist: List[float] = [INF] * left_size

    def bfs() -> bool:
        nonlocal dist
        dist = [INF] * left_size
        queue: deque = deque()
        for u in range(left_size):
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
        found_augmenting = False
        while queue:
            u = queue.popleft()
            for v in simple_adj[u]:
                w = match_right[v]
                if w is None:
                    found_augmenting = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found_augmenting

    def dfs(u: int) -> bool:
        for v in simple_adj[u]:
            w = match_right[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(left_size):
            if match_left[u] is None:
                dfs(u)
    return [
        rep[(u, v)]
        for u, v in ((u, match_left[u]) for u in range(left_size))
        if v is not None
    ]


def oracle_perfect_matching(side: int, edges: Sequence[Edge]) -> List[int]:
    matching = oracle_maximum_matching(side, side, edges)
    assert len(matching) == side
    return sorted(matching)


def oracle_padded_demand(
    demand: Sequence[Sequence[int]],
) -> Tuple[List[Edge], int, int]:
    """``(edges, num_real, degree)`` of a square demand matrix's multigraph
    padded to regular: row-major real edges, then greedy dummies pairing
    deficient left and right vertices in increasing id order."""
    side = len(demand)
    edges = [
        (u, v)
        for u, row in enumerate(demand)
        for v, count in enumerate(row)
        for _ in range(count)
    ]
    ld = [sum(row) for row in demand]
    rd = [sum(row[v] for row in demand) for v in range(side)]
    target = max(ld + rd) if side else 0
    left_deficit = [(u, target - d) for u, d in enumerate(ld) if target > d]
    right_deficit = [(v, target - d) for v, d in enumerate(rd) if target > d]
    padded = list(edges)
    li = ri = 0
    while li < len(left_deficit) and ri < len(right_deficit):
        u, du = left_deficit[li]
        v, dv = right_deficit[ri]
        take = min(du, dv)
        padded.extend([(u, v)] * take)
        du -= take
        dv -= take
        if du == 0:
            li += 1
        else:
            left_deficit[li] = (u, du)
        if dv == 0:
            ri += 1
        else:
            right_deficit[ri] = (v, dv)
    assert li == len(left_deficit) and ri == len(right_deficit)
    return padded, len(edges), target
