"""2-relative neighbourhood graph construction and threshold subgraphs.

An edge pq belongs to the 2-RNG exactly when fewer than two other input
points lie strictly inside the lune of pq (the intersection of the two
disks of radius |pq| centred at p and q).  Points on the lune boundary,
up to the instance tolerance, do not count as interior.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geom import Point2, geometry_eps
from .graph import Graph, make_graph


def build_2rng(points: Sequence[Point2]) -> Graph:
    """2-RNG with edge lengths attached; raises on duplicate points."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    if len({p.as_tuple() for p in points}) != n:
        raise ValueError("duplicate points")
    eps = geometry_eps(points)
    coords = np.array([[p.x, p.y] for p in points])
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])

    edges: list[tuple[int, int]] = []
    lens: list[float] = []
    for i in range(n - 1):
        thr = dist[i, i + 1:] - eps  # (m,) per-candidate strict-interior cutoff
        inside = (dist[i][None, :] < thr[:, None]) & (dist[i + 1:, :] < thr[:, None])
        counts = inside.sum(axis=1)
        for off in np.nonzero(counts < 2)[0]:
            j = i + 1 + int(off)
            edges.append((i, j))
            lens.append(float(dist[i, j]))
    return make_graph(n, edges, lens)


def threshold_subgraph(g: Graph, t: float) -> Graph:
    """Same vertex set, exactly the edges of length at most t."""
    if g.lengths is None:
        raise ValueError("graph has no edge lengths")
    kept = [(e, ln) for e, ln in zip(g.edges, g.lengths) if ln <= t]
    return Graph(g.vertex_count, tuple(e for e, _ in kept), tuple(ln for _, ln in kept))


def length_schedule(g: Graph, include_zero: bool = False) -> tuple[float, ...]:
    """Distinct ascending edge lengths of g; 0 is prepended on request."""
    if g.lengths is None:
        raise ValueError("graph has no edge lengths")
    lengths = sorted(set(g.lengths))
    if include_zero and (not lengths or lengths[0] > 0.0):
        lengths.insert(0, 0.0)
    return tuple(lengths)
