"""Exact solvers for Euclidean minimum bottleneck 2-connected k-Steiner
networks with k at most 2, plus independent brute-force/grid oracles."""

from .geom import Circle, Point2, circumcenter, distance, real_quartic_roots
from .graph import (BlockCutForest, Graph, b_count, block_cut_forest,
                    geometric_graph, is_biconnected, is_connected, make_graph,
                    max_edge_length)
from .rng import build_2rng, length_schedule, threshold_subgraph
from .scsd import (ColorSystem, ScsdResult, color_system, coupled_two_disk,
                   nearest_per_color, smallest_color_spanning_disk)
from .closure1 import OneBlockClosure, optimal_1block_closure
from .closure2 import (CriticalTopology, EmbeddedClosure, Partition,
                       classify, enumerate_partitions, locate_case1,
                       locate_case2, locate_case3, optimal_2block_closure)
from .solver import SolutionNetwork, mbsn0, mbsn1, mbsn2, solve, threshold_scan
from .oracle import oracle_k1, oracle_k2, oracle_mbsn0

__all__ = [
    "Circle", "Point2", "circumcenter", "distance", "real_quartic_roots",
    "BlockCutForest", "Graph", "b_count", "block_cut_forest", "geometric_graph",
    "is_biconnected", "is_connected", "make_graph", "max_edge_length",
    "build_2rng", "length_schedule", "threshold_subgraph",
    "ColorSystem", "ScsdResult", "color_system", "coupled_two_disk",
    "nearest_per_color", "smallest_color_spanning_disk",
    "OneBlockClosure", "optimal_1block_closure",
    "CriticalTopology", "EmbeddedClosure", "Partition", "classify",
    "enumerate_partitions", "locate_case1", "locate_case2", "locate_case3",
    "optimal_2block_closure",
    "SolutionNetwork", "mbsn0", "mbsn1", "mbsn2", "solve", "threshold_scan",
    "oracle_k1", "oracle_k2", "oracle_mbsn0",
]
