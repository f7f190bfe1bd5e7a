"""Graph substrate: Euler splits, matchings, Koenig and greedy colorings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColoringError
from repro.graphtools import (
    BipartiteMultigraph,
    color_demand,
    degree_histogram,
    euler_split,
    from_demand_matrix,
    greedy_edge_coloring,
    koenig_coloring_padded,
    koenig_edge_coloring,
    maximum_matching,
    num_colors,
    pad_to_regular,
    perfect_matching,
    verify_exact_coloring,
    verify_matching,
    verify_proper_coloring,
)
from koenig_oracle import (
    oracle_coloring,
    oracle_euler_split,
    oracle_maximum_matching,
    oracle_padded_demand,
)


def regular_graph(n: int, d: int, seed: int) -> BipartiteMultigraph:
    """d-regular bipartite multigraph = union of d random permutations."""
    rng = random.Random(seed)
    g = BipartiteMultigraph(n, n)
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        for u, v in enumerate(perm):
            g.add_edge(u, v)
    return g


def test_degrees_and_regularity():
    g = from_demand_matrix([[2, 0], [0, 2]])
    assert g.left_degrees() == [2, 2]
    assert g.right_degrees() == [2, 2]
    assert g.is_regular()
    assert g.regular_degree() == 2
    assert degree_histogram(g) == {2: 4}


def test_from_demand_matrix_edge_order():
    g = from_demand_matrix([[1, 2], [0, 1]])
    assert g.edges == [(0, 0), (0, 1), (0, 1), (1, 1)]


def test_pad_to_regular():
    g = from_demand_matrix([[1, 0], [0, 2]])
    padded, real = pad_to_regular(g)
    assert real == 3
    assert padded.is_regular()
    assert padded.regular_degree() == 2
    assert padded.edges[:3] == g.edges


def test_pad_rejects_rectangular():
    g = BipartiteMultigraph(2, 3, [(0, 0)])
    with pytest.raises(ColoringError):
        pad_to_regular(g)


def test_euler_split_halves_degrees():
    g = regular_graph(8, 4, seed=1)
    a, b = euler_split(g)
    assert sorted(a + b) == list(range(g.num_edges))
    for part in (a, b):
        sub, _ = g.subgraph(part)
        assert sub.is_regular()
        assert sub.regular_degree() == 2


def test_euler_split_rejects_odd_degrees():
    g = from_demand_matrix([[1, 0], [0, 1]])
    g.add_edge(0, 1)
    with pytest.raises(ColoringError):
        euler_split(g)


def test_perfect_matching_on_regular():
    g = regular_graph(10, 3, seed=2)
    m = perfect_matching(g)
    assert len(m) == 10
    verify_matching(g, m)


def test_maximum_matching_partial():
    # star: left 0 connected to all right, others isolated.
    g = BipartiteMultigraph(3, 3, [(0, 0), (0, 1), (0, 2)])
    m = maximum_matching(g)
    assert len(m) == 1


def test_perfect_matching_rejects_deficient():
    g = BipartiteMultigraph(2, 2, [(0, 0), (1, 0)])
    with pytest.raises(ColoringError):
        perfect_matching(g)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_koenig_exact_colors(d):
    g = regular_graph(7, d, seed=d)
    colors = koenig_edge_coloring(g)
    verify_exact_coloring(g, colors, d)
    assert num_colors(colors) == d


def test_koenig_rejects_irregular():
    g = from_demand_matrix([[2, 0], [0, 1]])
    with pytest.raises(ColoringError):
        koenig_edge_coloring(g)


def test_koenig_padded_on_irregular():
    g = from_demand_matrix([[3, 1, 0], [1, 1, 1], [0, 1, 2]])
    colors = koenig_coloring_padded(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= g.max_degree()


def test_greedy_bound():
    g = regular_graph(9, 6, seed=3)
    colors = greedy_edge_coloring(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= 2 * 6 - 1


def test_coloring_deterministic():
    g1 = regular_graph(8, 4, seed=9)
    g2 = regular_graph(8, 4, seed=9)
    assert koenig_edge_coloring(g1) == koenig_edge_coloring(g2)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_koenig_property_random_regular(n, d, seed):
    g = regular_graph(n, d, seed)
    colors = koenig_edge_coloring(g)
    verify_exact_coloring(g, colors, d)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_padded_koenig_property_any_demand(rows):
    g = from_demand_matrix(rows)
    colors = koenig_coloring_padded(g)
    verify_proper_coloring(g, colors)
    if g.num_edges:
        assert num_colors(colors) <= g.max_degree()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 7),
    d=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_greedy_property(n, d, seed):
    g = regular_graph(n, d, seed)
    colors = greedy_edge_coloring(g)
    verify_proper_coloring(g, colors)
    assert num_colors(colors) <= 2 * d - 1


# ---------------------------------------------------------------------------
# Differential oracle: the flat-array kernel against the frozen recursion.
# The kernel must hand out the recursion's colors edge for edge, since with
# lanes > 1 the primitives' packet counts depend on the colors.


def multi_regular(side: int, degree: int, distinct: int, seed: int, shuffle: bool):
    """``degree`` layers drawn from ``distinct`` random permutations, so up
    to ``degree // distinct`` parallel copies of each edge."""
    rng = random.Random(seed)
    perms = [rng.sample(range(side), side) for _ in range(distinct)]
    edges = [(u, v) for _ in range(degree) for u, v in enumerate(rng.choice(perms))]
    if shuffle:
        rng.shuffle(edges)
    return BipartiteMultigraph(side, side, edges)


def assert_demand_matches_oracle(demand):
    edges, num_real, degree = oracle_padded_demand(demand)
    expected = oracle_coloring(len(demand), edges, degree)[:num_real]
    by_pair, got_degree = color_demand(demand)
    flat = [c for colors in by_pair.values() for c in colors]
    assert flat == expected
    assert list(by_pair) == sorted({e for e in edges[:num_real]})
    assert got_degree == (degree if num_real else 0)
    assert koenig_coloring_padded(from_demand_matrix(demand)) == expected
    greedy = greedy_edge_coloring(from_demand_matrix(demand))
    by_pair, count = color_demand(demand, "greedy")
    assert [c for colors in by_pair.values() for c in colors] == greedy
    assert count == (max(greedy) + 1 if greedy else 0)


def shape_demand(side: int, degree: int, seed: int):
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


@settings(max_examples=60, deadline=None)
@given(
    side=st.integers(1, 32),
    degree=st.integers(1, 64),
    distinct=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    shuffle=st.booleans(),
)
def test_kernel_matches_recursive_oracle(side, degree, distinct, seed, shuffle):
    g = multi_regular(side, degree, distinct, seed, shuffle)
    assert koenig_edge_coloring(g) == oracle_coloring(side, g.edges, degree)
    assert maximum_matching(g) == oracle_maximum_matching(side, side, g.edges)
    if degree % 2 == 0:
        assert euler_split(g) == oracle_euler_split(side, side, g.edges)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 12).flatmap(
        lambda side: st.lists(
            st.lists(st.integers(0, 6) | st.just(0), min_size=side, max_size=side),
            min_size=side,
            max_size=side,
        )
    )
)
def test_demand_coloring_matches_recursive_oracle(rows):
    assert_demand_matches_oracle(rows)


@pytest.mark.parametrize(
    "side, degree",
    [(16, 256), (16, 4088), (256, 235)],
    ids=["s16-d256", "s16-d4088", "s256-d235"],
)
def test_n256_shapes_match_recursive_oracle(side, degree):
    demand = shape_demand(side, degree, seed=side + degree)
    assert max(map(sum, demand)) == degree
    assert_demand_matches_oracle(demand)


def test_kernel_rejects_irregular_level():
    from repro.graphtools.coloring import _koenig_kernel

    # Left degrees 2, 2 but right degrees 3, 1.
    with pytest.raises(ColoringError, match="not regular"):
        _koenig_kernel([0, 0, 1, 1], [0, 0, 0, 1], 2, 2)


def test_split_level_rejects_odd_circuit():
    from repro.graphtools.coloring import split_level

    # A triangle 0-1-2 in one vertex namespace: no bipartite graph has it.
    adj = [[0, 2], [0, 1], [1, 2]]
    with pytest.raises(ColoringError, match="odd circuit"):
        split_level(adj, [0 + 1, 1 + 2, 2 + 0], [0, 0, 0], 1)
