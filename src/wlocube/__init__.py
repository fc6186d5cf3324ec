"""Weight-order structure on the n-dimensional Boolean cube.

Vectors are handled exclusively through their serial numbers: the integer
whose n-digit binary expansion (most significant digit first) gives the
coordinates.  On top of that vocabulary the package provides the
weight-lexicographic order (WLO) sequence, truth tables and the layer
masks (the truth tables of the layers), fast max/min-weight support
search over truth tables, algebraic degree from ANF coefficient vectors,
exact enumeration of weight-order combinatorics, a subset
ranking/unranking layer, and a micro-benchmark harness.
"""

from .cube import (
    MAX_DIM,
    adjacent_split,
    build_weight_table,
    hamming_distance,
    precedes,
    weight_of,
)
from .wlo import WloSequence, layer_serials, layer_slice, wlo_bucket, wlo_recursive
from .masks import MaskSet, TruthTable, mask_paper_serial, mask_test, masks_from_wlo, masks_recursive
from .search import (
    SearchHit,
    SearchStats,
    algebraic_degree,
    bitwise_search_max,
    exhaustive_max,
    layer_support,
    mobius_transform,
    wlo_search_max,
    wlo_search_min,
)
from .counts import (
    count_max_chains_precedes,
    count_max_chains_wo,
    count_weight_orders,
    oracle_count_chains,
    oracle_count_linear_extensions,
    oracle_count_shortest_paths,
)
from .subsets import SubsetHandle, SubsetUniverse, k_subsets, rank, set_op, subsets_in_cardinality_order, unrank

__all__ = [
    "MAX_DIM",
    "weight_of",
    "build_weight_table",
    "hamming_distance",
    "precedes",
    "adjacent_split",
    "WloSequence",
    "wlo_bucket",
    "wlo_recursive",
    "layer_serials",
    "layer_slice",
    "MaskSet",
    "masks_from_wlo",
    "masks_recursive",
    "mask_paper_serial",
    "mask_test",
    "TruthTable",
    "SearchHit",
    "SearchStats",
    "exhaustive_max",
    "wlo_search_max",
    "wlo_search_min",
    "bitwise_search_max",
    "layer_support",
    "mobius_transform",
    "algebraic_degree",
    "count_weight_orders",
    "count_max_chains_wo",
    "count_max_chains_precedes",
    "oracle_count_chains",
    "oracle_count_linear_extensions",
    "oracle_count_shortest_paths",
    "SubsetUniverse",
    "SubsetHandle",
    "rank",
    "unrank",
    "set_op",
    "subsets_in_cardinality_order",
    "k_subsets",
]
