"""Edge colorings of bipartite multigraphs.

Two algorithms back the paper's communication scheduling:

* :func:`koenig_edge_coloring` — an *exact* Delta-coloring of a regular
  bipartite multigraph (Koenig's line coloring theorem, the paper's Theorem
  3.2), computed by the classical recursion: even degree -> Euler partition
  into two half-degree graphs; odd degree -> extract one perfect matching and
  recurse on the even remainder.  The Euler partition (:func:`euler_split`)
  walks an Euler circuit of each connected component and deals its edges
  alternately to the two halves; bipartite circuits have even length, so
  each visit to a vertex gives one edge to each half.  The paper cites
  Cole–Ost–Schirra [1] for an ``O(|E| log Delta)`` implementation; we use
  this simpler polynomial scheme (see DESIGN.md "Simulation substitutions")
  — any deterministic proper coloring computed identically by all nodes
  satisfies the algorithms.
  :func:`color_demand` runs either straight off a demand matrix.
* :func:`greedy_edge_coloring` — the ``<= 2*Delta - 1`` color greedy coloring
  of the paper's footnote 3, used by the Section 5 computation-efficient
  variant.

Both are pure functions of the input graph and deterministic, so simulated
nodes agree on the schedule without communication.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import ColoringError
from .matching import perfect_level
from .multigraph import BipartiteMultigraph, demand_edges, pad_to_regular, padding


def koenig_edge_coloring(graph: BipartiteMultigraph) -> List[int]:
    """Color a d-regular bipartite multigraph with exactly ``d`` colors.

    Returns ``colors[i]`` in ``0..d-1`` for each edge index ``i`` such that no
    two edges sharing an endpoint receive the same color (each color class is
    a perfect matching).

    Raises:
        ColoringError: if the graph is not regular.
    """
    if graph.left_size != graph.right_size:
        raise ColoringError("Koenig coloring requires equal side sizes")
    if not graph.is_regular():
        raise ColoringError(
            "Koenig coloring requires a regular graph; pad first "
            "(see pad_to_regular)"
        )
    return _koenig_kernel(
        [u for u, _ in graph.edges],
        [v for _, v in graph.edges],
        graph.left_size,
        graph.regular_degree(),
    )


def color_demand(
    demand: Sequence[Sequence[int]], scheme: str = "koenig"
) -> Tuple[Dict[Tuple[int, int], List[int]], int]:
    """Color the multigraph of a demand matrix; group the colors by pair.

    Returns ``(by_pair, num_colors)``: ``by_pair[(a, b)]`` lists the colors
    of the ``demand[a][b]`` parallel edges from ``a`` to ``b`` in
    :func:`from_demand_matrix` order.  ``"koenig"`` colors the square
    demand padded to its largest line sum ``D`` with exactly ``D`` colors;
    its edges, dummies and colors are those of :func:`pad_to_regular` and
    :func:`koenig_edge_coloring`, computed from the row and column sums
    without a graph object.  ``"greedy"`` is :func:`greedy_edge_coloring`.
    """
    us, vs, row_sums, col_sums = demand_edges(demand)
    if not us:
        return {}, 0
    if scheme == "greedy":
        graph = BipartiteMultigraph(len(row_sums), len(col_sums), list(zip(us, vs)))
        colors = greedy_edge_coloring(graph)
        count = max(colors) + 1
    else:
        if len(row_sums) != len(col_sums):
            raise ColoringError("padding requires equal side sizes")
        count = max(max(row_sums), max(col_sums))
        pad_u, pad_v = padding(row_sums, col_sums, count)
        colors = _koenig_kernel(us + pad_u, vs + pad_v, len(row_sums), count)
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    pos = 0
    for u, row in enumerate(demand):
        for v, k in enumerate(row):
            if k:
                by_pair[(u, v)] = colors[pos : pos + k]
                pos += k
    return by_pair, count


def _koenig_kernel(us: List[int], vs: List[int], k: int, d: int) -> List[int]:
    """Colors ``0..d-1`` of the edges ``(us[e], vs[e])`` of a d-regular
    bipartite multigraph with ``k`` vertices per side.

    The classical recursion, run off an explicit work stack of ``(edge ids,
    degree, first color)`` levels.  Each level lists its edges in the order
    the recursion's subgraph would hold them, so every Euler circuit and
    matching — and therefore every color — is the one the recursive form
    produces.  Vertices share one namespace (right ``v`` is ``k + v``).
    """
    m = len(us)
    ends = [k + v for v in vs]
    both = [u + w for u, w in zip(us, ends)]
    stamp = [0] * m
    colors = [-1] * m
    work: List[Tuple[List[int], int, int]] = [(list(range(m)), d, 0)]
    mark = 0
    while work:
        ids, d, base = work.pop()
        if not ids:
            continue
        adj = _incidence(ids, us, ends, 2 * k)
        if set(map(len, adj)) != {d}:
            raise ColoringError(f"a degree-{d} level of the recursion is not regular")
        if d == 1:
            for e in ids:
                colors[e] = base
        elif d % 2:
            for e in perfect_level(adj[:k], vs):
                colors[e] = base
            work.append(([e for e in ids if colors[e] < 0], d - 1, base + 1))
        else:
            mark += 1
            half_a, half_b = split_level(adj, both, stamp, mark)
            half = d // 2
            work.append((half_b, half, base + half))
            work.append((half_a, half, base))
    if -1 in colors:
        raise ColoringError("internal error: some edges left uncolored")
    return colors


def euler_split(graph: BipartiteMultigraph) -> Tuple[List[int], List[int]]:
    """Split an all-even-degree multigraph into two half-degree edge sets.

    Returns two lists of edge indices.  Raises :class:`ColoringError` if any
    vertex has odd degree.
    """
    for d in graph.left_degrees() + graph.right_degrees():
        if d % 2 != 0:
            raise ColoringError("euler_split requires all degrees even")
    # Unified vertex namespace: left u -> u, right v -> left_size + v.
    us = [u for u, _ in graph.edges]
    ends = [graph.left_size + v for _, v in graph.edges]
    adj = _incidence(
        range(graph.num_edges), us, ends, graph.left_size + graph.right_size
    )
    both = [u + w for u, w in zip(us, ends)]
    return split_level(adj, both, [0] * graph.num_edges, 1)


def split_level(
    adj: Sequence[List[int]],
    both: Sequence[int],
    stamp: List[int],
    mark: int,
) -> Tuple[List[int], List[int]]:
    """Euler split of the edges listed in ``adj``, one Hierholzer circuit
    per connected component, vertices and incidences in index order.

    ``adj[x]`` lists the ids of the edges at unified vertex ``x``;
    ``both[e]`` is the sum of edge ``e``'s two endpoints, so its far end
    from ``x`` is ``both[e] - x``.  An edge is used once ``stamp[e] ==
    mark``: callers splitting many edge sets share one ``stamp`` array and
    pass a fresh ``mark`` per call.
    """
    # One cursor per vertex, so each incidence is scanned once.
    cursors = [iter(incident) for incident in adj]
    half_a: List[int] = []
    half_b: List[int] = []
    for start in range(len(adj)):
        # Iterative Hierholzer: ``trail`` holds the edges of the open walk;
        # a vertex with no unused edge left retires its entering edge into
        # the circuit, which therefore comes out in reverse order.
        v, trail, circuit = start, [], []
        while True:
            for e in cursors[v]:
                if stamp[e] != mark:
                    stamp[e] = mark
                    trail.append(e)
                    v = both[e] - v
                    break
            else:
                if not trail:
                    break
                e = trail.pop()
                circuit.append(e)
                v = both[e] - v
        # Bipartite circuits have even length; alternate the halves.
        if len(circuit) % 2 != 0:
            raise ColoringError(
                "odd circuit in bipartite multigraph (corrupt input)"
            )
        circuit.reverse()
        half_a += circuit[::2]
        half_b += circuit[1::2]
    return half_a, half_b


def _incidence(
    ids: Iterable[int], us: Sequence[int], ends: Sequence[int], num_vertices: int
) -> List[List[int]]:
    """Per-vertex lists of incident edge ids, each in the order of ``ids``;
    edge ``e`` joins vertex ``us[e]`` to ``ends[e]`` of one namespace."""
    adj: List[List[int]] = [[] for _ in range(num_vertices)]
    for e in ids:
        adj[us[e]].append(e)
        adj[ends[e]].append(e)
    return adj


def koenig_coloring_padded(
    graph: BipartiteMultigraph, degree: Optional[int] = None
) -> List[int]:
    """Koenig-color an irregular graph by padding it to regular first.

    Dummy padding edges are colored too but discarded; only colors of the
    real edges are returned.  The number of colors is ``degree`` (default:
    the max degree of the input).
    """
    padded, num_real = pad_to_regular(graph, degree)
    full = koenig_edge_coloring(padded)
    return full[:num_real]


def greedy_edge_coloring(graph: BipartiteMultigraph) -> List[int]:
    """Greedy proper edge coloring with at most ``2*Delta - 1`` colors.

    Edges are processed in index order; each takes the smallest color unused
    at both endpoints.  This is the cheap coloring the paper's footnote 3
    allows ("a simple greedy coloring of the line graph results in at most
    2d-1 matchings") and Section 5 relies on for O(n log n) local work.
    """
    left_used: List[set] = [set() for _ in range(graph.left_size)]
    right_used: List[set] = [set() for _ in range(graph.right_size)]
    colors: List[int] = []
    for u, v in graph.edges:
        c = 0
        used_u, used_v = left_used[u], right_used[v]
        while c in used_u or c in used_v:
            c += 1
        used_u.add(c)
        used_v.add(c)
        colors.append(c)
    return colors


def num_colors(colors: List[int]) -> int:
    """Number of distinct colors actually used."""
    return len(set(colors)) if colors else 0
