"""Bipartite multigraphs with edge identity.

The paper's communication schedules are edge colorings of bipartite
multigraphs in which *each message is one edge* (Theorem 3.2 / Corollary
3.3).  Edge identity therefore matters: colorings are reported per edge
index, and parallel edges are distinct objects.

Left vertices are ``0..left_size-1``, right vertices ``0..right_size-1``;
the two sides are separate namespaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ColoringError

Edge = Tuple[int, int]


@dataclass
class BipartiteMultigraph:
    """A bipartite multigraph given as an ordered list of (left, right) edges."""

    left_size: int
    right_size: int
    edges: List[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        for u, v in self.edges:
            self._check_edge(u, v)

    def _check_edge(self, u: int, v: int) -> None:
        if not 0 <= u < self.left_size:
            raise ValueError(f"left vertex {u} out of range")
        if not 0 <= v < self.right_size:
            raise ValueError(f"right vertex {v} out of range")

    def add_edge(self, u: int, v: int) -> int:
        """Append an edge; returns its index."""
        self._check_edge(u, v)
        self.edges.append((u, v))
        return len(self.edges) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def left_degrees(self) -> List[int]:
        deg = [0] * self.left_size
        for u, _ in self.edges:
            deg[u] += 1
        return deg

    def right_degrees(self) -> List[int]:
        deg = [0] * self.right_size
        for _, v in self.edges:
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        degs = self.left_degrees() + self.right_degrees()
        return max(degs) if degs else 0

    def is_regular(self) -> bool:
        """True iff every left and every right vertex has the same degree."""
        ld, rd = self.left_degrees(), self.right_degrees()
        all_degs = ld + rd
        return len(set(all_degs)) <= 1

    def regular_degree(self) -> int:
        """The common degree of a regular graph (raises if not regular)."""
        if not self.is_regular():
            raise ColoringError("graph is not regular")
        return self.left_degrees()[0] if self.left_size else 0

    def subgraph(self, edge_indices: Sequence[int]) -> Tuple["BipartiteMultigraph", List[int]]:
        """Graph induced by the given edge indices.

        Returns ``(graph, back_map)`` where ``back_map[i]`` is the index in
        ``self.edges`` of the subgraph's ``i``-th edge.
        """
        back = list(edge_indices)
        sub = BipartiteMultigraph(
            self.left_size, self.right_size, [self.edges[i] for i in back]
        )
        return sub, back


def from_demand_matrix(demand: Sequence[Sequence[int]]) -> BipartiteMultigraph:
    """Build a multigraph from a demand matrix.

    ``demand[u][v]`` parallel edges are created from left ``u`` to right
    ``v``, in row-major order — the canonical encoding of "node u holds k
    messages for destination v" used by the routing primitives.
    """
    us, vs, row_sums, col_sums = demand_edges(demand)
    return BipartiteMultigraph(len(row_sums), len(col_sums), list(zip(us, vs)))


def demand_edges(
    demand: Sequence[Sequence[int]],
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """``(us, vs, row_sums, col_sums)``: the endpoints of the demand
    multigraph's edges in :func:`from_demand_matrix` order, and its left
    and right degrees."""
    width = len(demand[0]) if demand else 0
    us: List[int] = []
    vs: List[int] = []
    row_sums: List[int] = []
    col_sums = [0] * width
    for u, row in enumerate(demand):
        if len(row) != width:
            raise ValueError("demand matrix is ragged")
        before = len(us)
        for v, count in enumerate(row):
            if count:
                if count < 0:
                    raise ValueError("negative demand")
                us += [u] * count
                vs += [v] * count
                col_sums[v] += count
        row_sums.append(len(us) - before)
    return us, vs, row_sums, col_sums


def pad_to_regular(
    graph: BipartiteMultigraph, degree: Optional[int] = None
) -> Tuple[BipartiteMultigraph, int]:
    """Add dummy edges so the graph becomes ``degree``-regular.

    Only defined for equal side sizes (the paper always pads sender/receiver
    role graphs, which are square).  The padding is deterministic (see
    :func:`padding`), so every node computing this from common knowledge
    obtains the identical padded graph.

    Returns ``(padded_graph, num_real_edges)``; real edges keep their indices
    ``0..num_real_edges-1`` and dummies occupy the tail.
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("padding requires equal side sizes")
    target = degree if degree is not None else graph.max_degree()
    pad_u, pad_v = padding(graph.left_degrees(), graph.right_degrees(), target)
    padded = BipartiteMultigraph(
        graph.left_size, graph.right_size, graph.edges + list(zip(pad_u, pad_v))
    )
    return padded, graph.num_edges


def padding(
    left_degrees: Sequence[int], right_degrees: Sequence[int], target: int
) -> Tuple[List[int], List[int]]:
    """Endpoints ``(us, vs)`` of the dummy edges that make a graph with these
    degrees ``target``-regular.

    The ``i``-th dummy joins the ``i``-th missing left slot to the ``i``-th
    missing right slot, slots listed in increasing vertex id: deficient
    vertices are paired greedily in id order.
    """
    if max([target, *left_degrees, *right_degrees]) > target:
        raise ColoringError(f"target degree {target} below existing max degree")
    pad_u = [u for u, d in enumerate(left_degrees) for _ in range(target - d)]
    pad_v = [v for v, d in enumerate(right_degrees) for _ in range(target - d)]
    if len(pad_u) != len(pad_v):
        raise ColoringError(
            "left/right padding deficits disagree; sides have unequal totals"
        )
    return pad_u, pad_v


def degree_histogram(graph: BipartiteMultigraph) -> Dict[int, int]:
    """How many vertices (both sides) have each degree — for diagnostics."""
    hist: Dict[int, int] = {}
    for d in graph.left_degrees() + graph.right_degrees():
        hist[d] = hist.get(d, 0) + 1
    return hist
