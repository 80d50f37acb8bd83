"""2-relative neighbourhood graph construction and threshold subgraphs.

An edge pq belongs to the 2-RNG exactly when fewer than two other input
points lie strictly inside the lune of pq (the intersection of the two
disks of radius |pq| centred at p and q).  Points on the lune boundary,
up to the instance tolerance, do not count as interior: r is inside the
lune of pq when d(p, r) < d(p, q) - eps and d(q, r) < d(p, q) - eps.

The graph is built in two passes over one dense distance matrix, filled
with one ``hypot`` per unordered pair, both using that predicate and
nothing else:

* Witness pass.  The ``_WITNESSES`` nearest other points of each point
  are its witnesses.  A pair pq is dropped when at least two witnesses of
  p, or at least two witnesses of q, pass the predicate.  Each counted
  witness is a distinct point inside the lune, so a drop proves the lune
  holds two points.  Neither p nor q ever passes: for each of them one of
  the two inequalities reads d(p, q) < d(p, q) - eps.  This costs O(K n^2).
* Exact count.  Every pair the witness pass leaves is counted against
  all n points, in chunks of pairs, and kept when fewer than two points
  pass.  This costs O(n) per survivor.

A pair is kept exactly when the full count is below two, as in the direct
O(n^3) count, so the result is the same graph; the witness pass only
decides which pairs need the full count.  On uniform points only a few
per cent of the pairs survive it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geom import Point2, geometry_eps
from .graph import Graph, make_graph


_WITNESSES = 8  # nearest other points per point tried before the full count
_CHUNK = 256  # rows, or survivor pairs, handled at once


def build_2rng(points: Sequence[Point2]) -> Graph:
    """2-RNG with edge lengths attached; raises on duplicate points."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points")
    if len({p.as_tuple() for p in points}) != n:
        raise ValueError("duplicate points")
    eps = geometry_eps(points)
    x = np.array([p.x for p in points])
    y = np.array([p.y for p in points])
    # one hypot per unordered pair, mirrored below the diagonal: x_j - x_i is
    # exactly -(x_i - x_j) and hypot ignores signs: the dense matrix, bit for bit
    dist = np.empty((n, n))
    for s in range(0, n, _CHUNK):
        blk = np.hypot(x[s:s + _CHUNK, None] - x[s:], y[s:s + _CHUNK, None] - y[s:])
        dist[s:s + _CHUNK, s:] = blk
        dist[s:, s:s + _CHUNK] = blk.T

    # witness pass: hits[i, j] counts the witnesses of i inside the lune of ij
    kw = min(_WITNESSES, n - 1)
    np.fill_diagonal(dist, np.inf)
    # copied so that the n x n index array argpartition returns is freed
    witnesses = np.argpartition(dist, kw - 1, axis=1)[:, :kw].copy()
    np.fill_diagonal(dist, 0.0)
    hits = np.zeros((n, n), dtype=np.int8)
    for s in range(0, n, _CHUNK):
        rows = np.arange(s, min(s + _CHUNK, n))
        thr = dist[rows] - eps  # strict-interior cutoff of the lune of (row, j)
        block = hits[s:s + _CHUNK]
        for w in witnesses[rows].T:
            block += (dist[rows, w][:, None] < thr) & (dist[w] < thr)
    dropped = hits >= 2
    iu, ju = np.nonzero(np.triu(~(dropped | dropped.T), 1))

    # exact count over all points for the pairs the witnesses left
    keep = np.empty(len(iu), dtype=bool)
    for s in range(0, len(iu), _CHUNK):
        i, j = iu[s:s + _CHUNK], ju[s:s + _CHUNK]
        thr = (dist[i, j] - eps)[:, None]
        keep[s:s + _CHUNK] = ((dist[i] < thr) & (dist[j] < thr)).sum(axis=1) < 2
    iu, ju = iu[keep], ju[keep]
    return make_graph(n, zip(iu.tolist(), ju.tolist()), dist[iu, ju].tolist())


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
