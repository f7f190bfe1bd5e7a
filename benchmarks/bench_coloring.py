"""E11 — Theorem 3.2 machinery: exact Koenig d-coloring vs greedy <= 2d-1.

Verifies the decomposition into perfect matchings (each color class of a
d-regular graph) and compares color counts and wall time of the exact and
greedy algorithms across a degree sweep.

The kernel rows time the Koenig kernel on the three demand shapes one
n=256 Lenzen routing or sorting instance colors cold (group side 16 at
degree 256 and about 4088, member side 256 at degree 235), assert the
coloring exact there, and merge the best-of-N milliseconds into the
ungated ``coloring`` section of ``BENCH_engines.json`` with the host they
were measured on.
"""

import random
import time

from repro.analysis import render_table
from repro.graphtools import (
    BipartiteMultigraph,
    color_classes,
    color_demand,
    from_demand_matrix,
    greedy_edge_coloring,
    koenig_edge_coloring,
    num_colors,
    pad_to_regular,
    verify_exact_coloring,
    verify_matching,
    verify_proper_coloring,
)


def _regular(n, d, seed):
    rng = random.Random(seed)
    g = BipartiteMultigraph(n, n)
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        for u, v in enumerate(perm):
            g.add_edge(u, v)
    return g


#: (side, degree) of the demands one n=256 route or sort colors cold.
N256_SHAPES = ((16, 256), (16, 4088), (256, 235))

#: repeats for best-of-N kernel timing.
REPEAT = 3


def _shape_demand(side, degree, seed):
    """A padded-shape demand: a ``degree``-regular multigraph with about 5%
    of its edges dropped outside row 0, so the max line sum stays
    ``degree``."""
    rng = random.Random(seed)
    demand = [[0] * side for _ in range(side)]
    for _ in range(degree):
        for u, v in enumerate(rng.sample(range(side), side)):
            demand[u][v] += 1
    for _ in range(side * degree // 20):
        u, v = rng.randrange(1, side), rng.randrange(side)
        demand[u][v] -= demand[u][v] > 0
    return demand


def _best_ms(fn):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _measure_n256_shapes():
    rows = []
    for side, degree in N256_SHAPES:
        demand = _shape_demand(side, degree, seed=side + degree)
        padded, num_real = pad_to_regular(from_demand_matrix(demand))
        assert padded.regular_degree() == degree
        colors = koenig_edge_coloring(padded)
        verify_exact_coloring(padded, colors, degree)
        for cls in color_classes(colors):
            assert len(cls) == side  # every class a perfect matching
        by_pair, got = color_demand(demand)
        assert got == degree
        assert [c for cs in by_pair.values() for c in cs] == colors[:num_real]
        rows.append([
            side, degree, padded.num_edges,
            _best_ms(lambda: koenig_edge_coloring(padded)),
            _best_ms(lambda: color_demand(demand)),
        ])
    return rows


def _measure():
    rows = []
    for n, d in [(16, 4), (16, 16), (32, 8), (32, 31), (64, 16)]:
        g = _regular(n, d, seed=d)
        exact = koenig_edge_coloring(g)
        verify_exact_coloring(g, exact, d)
        for cls in color_classes(exact):
            verify_matching(g, cls)
            assert len(cls) == n  # perfect matchings
        greedy = greedy_edge_coloring(g)
        verify_proper_coloring(g, greedy)
        gcols = num_colors(greedy)
        assert gcols <= 2 * d - 1
        rows.append([n, d, g.num_edges, num_colors(exact), gcols, 2 * d - 1])
    return rows


def test_bench_coloring(benchmark, table_printer):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table_printer(
        render_table(
            "E11  Koenig exact coloring vs greedy (footnote 3)",
            ["n", "degree d", "edges", "Koenig colors", "greedy", "2d-1"],
            rows,
        )
    )


def test_bench_koenig_kernel_n256_shapes(benchmark, table_printer, bench_json):
    from conftest import host_meta

    rows = benchmark.pedantic(_measure_n256_shapes, rounds=1, iterations=1)
    table_printer(
        render_table(
            "E11  Koenig kernel at the n=256 demand shapes (ms, best-of-N)",
            ["side", "degree", "edges", "padded graph", "from demand"],
            [[s, d, m, f"{g:.1f}", f"{c:.1f}"] for s, d, m, g, c in rows],
        )
    )
    bench_json(
        "coloring",
        {
            "description": (
                "Koenig kernel on the demand shapes of one n=256 Lenzen "
                "route/sort: koenig_edge_coloring of the padded regular "
                "graph and color_demand from the matrix; context "
                "only, never gated"
            ),
            "host": host_meta(),
            "rows": [
                {
                    "side": s,
                    "degree": d,
                    "edges": m,
                    "graph_ms": round(g, 1),
                    "demand_ms": round(c, 1),
                    "gated": False,
                }
                for s, d, m, g, c in rows
            ],
        },
    )


def test_bench_koenig_speed(benchmark):
    g = _regular(64, 16, seed=1)
    benchmark(lambda: koenig_edge_coloring(g))


def test_bench_greedy_speed(benchmark):
    g = _regular(64, 16, seed=1)
    benchmark(lambda: greedy_edge_coloring(g))


if __name__ == "__main__":
    from conftest import run_standalone

    raise SystemExit(run_standalone(__file__))
