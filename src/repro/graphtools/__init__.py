"""Bipartite-multigraph toolkit backing the paper's Theorem 3.2 machinery."""

from .coloring import (
    color_demand,
    euler_split,
    greedy_edge_coloring,
    koenig_coloring_padded,
    koenig_edge_coloring,
    num_colors,
)
from .matching import maximum_matching, perfect_matching
from .multigraph import (
    BipartiteMultigraph,
    degree_histogram,
    from_demand_matrix,
    pad_to_regular,
)
from .validation import (
    color_classes,
    verify_exact_coloring,
    verify_matching,
    verify_proper_coloring,
)

__all__ = [
    "BipartiteMultigraph",
    "from_demand_matrix",
    "pad_to_regular",
    "degree_histogram",
    "euler_split",
    "maximum_matching",
    "perfect_matching",
    "koenig_edge_coloring",
    "color_demand",
    "koenig_coloring_padded",
    "greedy_edge_coloring",
    "num_colors",
    "verify_proper_coloring",
    "verify_exact_coloring",
    "verify_matching",
    "color_classes",
]
