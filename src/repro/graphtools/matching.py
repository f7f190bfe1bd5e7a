"""Deterministic perfect matchings in bipartite multigraphs (Hopcroft–Karp).

Koenig coloring of an odd-degree-regular multigraph extracts one perfect
matching (which exists by Hall's theorem for any d-regular bipartite
multigraph) and recurses on the even remainder.  Hopcroft–Karp runs on the
underlying simple graph; a representative edge index (the smallest) is
reported per matched pair so parallel edges stay distinguishable.

Determinism: vertices and neighbors are always scanned in increasing index
order, so every simulated node computes the same matching from the same
graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ColoringError
from .multigraph import BipartiteMultigraph

INF = float("inf")


def maximum_matching(graph: BipartiteMultigraph) -> List[int]:
    """Maximum matching as a list of edge indices (one per matched pair)."""
    left_adj, vs = _left_incidence(graph)
    return [e for e in _matched_edges(left_adj, vs, graph.right_size) if e is not None]


def perfect_matching(graph: BipartiteMultigraph) -> List[int]:
    """A perfect matching of a regular bipartite multigraph.

    Raises :class:`ColoringError` if the matching found is not perfect —
    which cannot happen on a regular input (Hall's theorem) and therefore
    signals a corrupt graph.
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("perfect matching requires equal side sizes")
    return sorted(perfect_level(*_left_incidence(graph)))


def perfect_level(left_adj: Sequence[List[int]], vs: Sequence[int]) -> List[int]:
    """Edge ids of a perfect matching, one per left vertex in order.

    ``left_adj[u]`` lists the ids of the edges at left vertex ``u`` in
    increasing local order and ``vs[e]`` is edge ``e``'s right endpoint;
    both sides have ``len(left_adj)`` vertices.
    """
    matched = [e for e in _matched_edges(left_adj, vs, len(left_adj)) if e is not None]
    if len(matched) != len(left_adj):
        raise ColoringError(
            f"no perfect matching: matched {len(matched)} of "
            f"{len(left_adj)} vertices (graph not regular?)"
        )
    return matched


def _left_incidence(graph: BipartiteMultigraph) -> Tuple[List[List[int]], List[int]]:
    left_adj: List[List[int]] = [[] for _ in range(graph.left_size)]
    for e, (u, _) in enumerate(graph.edges):
        left_adj[u].append(e)
    return left_adj, [v for _, v in graph.edges]


def _matched_edges(
    left_adj: Sequence[List[int]], vs: Sequence[int], right_size: int
) -> List[Optional[int]]:
    """Per left vertex, the representative id of its matched edge or None."""
    # Underlying simple adjacency with representative (first) edge id.
    reps: List[Dict[int, int]] = [{} for _ in left_adj]
    for first, incident in zip(reps, left_adj):
        for e in incident:
            first.setdefault(vs[e], e)
    match_left = _hopcroft_karp([sorted(first) for first in reps], right_size)
    return [None if v is None else reps[u][v] for u, v in enumerate(match_left)]


def _hopcroft_karp(
    simple_adj: List[List[int]], right_size: int
) -> List[Optional[int]]:
    """Hopcroft–Karp on a simple bipartite graph; ``match_left`` per vertex."""
    left_size = len(simple_adj)
    match_left: List[Optional[int]] = [None] * left_size
    match_right: List[Optional[int]] = [None] * right_size

    # Layered distances from the latest BFS phase, shared with dfs below.
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
    return match_left
