"""Optimal 1-block closure: the cheapest way to make a connected graph
2-connected by adding a single Steiner point.

For a graph that is not a block the Steiner point is the centre of the
smallest colour-spanning disk over the leaf-block interiors (one colour
per leaf block) with one edge to the nearest interior point of each leaf
block.  For a block it sits at the midpoint of the shortest edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geom import Point2
from .graph import BlockCutForest, Graph, block_cut_forest, is_biconnected, is_connected
from .scsd import ScsdContext


@dataclass(frozen=True)
class OneBlockClosure:
    steiner: Point2
    steiner_edges: tuple[int, ...]  # terminal vertex ids, one edge each
    radius: float


def optimal_1block_closure(g: Graph, points: Sequence[Point2],
                           ctx: ScsdContext | None = None,
                           bcf: BlockCutForest | None = None) -> OneBlockClosure:
    """Raises ValueError on disconnected input; ``bcf`` is g's forest, if known."""
    if not is_connected(g):
        raise ValueError("1-block closure requires a connected graph")
    if is_biconnected(g):
        if not g.edges:
            # single vertex: zero-radius closure at the vertex itself
            return OneBlockClosure(points[0], (0,), 0.0)
        assert g.lengths is not None
        short = min(zip(g.lengths, g.edges))
        ln, (u, v) = short
        mid = Point2((points[u].x + points[v].x) / 2.0, (points[u].y + points[v].y) / 2.0)
        return OneBlockClosure(mid, (u, v), ln / 2.0)
    if ctx is None:
        ctx = ScsdContext(points)
    bcf = bcf or block_cut_forest(g)
    classes = [list(bcf.interiors[b]) for b in bcf.leaf_blocks]
    r, center, picks = ctx.best_center(classes)
    return OneBlockClosure(center, tuple(picks), r)
