"""2-relative neighbourhood graph construction and threshold subgraphs.

An edge pq belongs to the 2-RNG exactly when fewer than two other input
points lie strictly inside the lune of pq (the intersection of the two
disks of radius |pq| centred at p and q).  Points on the lune boundary,
up to the instance tolerance, do not count as interior: r is inside the
lune of pq when d(p, r) < d(p, q) - eps and d(q, r) < d(p, q) - eps.

The graph is built over one dense distance matrix, filled with one
``hypot`` per unordered pair.  Each pair passes through up to three
filters, a row block at a time; only the last one decides:

* Sector certificate (n > ``_CERTIFY_ABOVE``).  Split the plane about
  each point p into six fixed 60 degree sectors (by ``atan2``), and let
  delta_2 be the distance to the second nearest of p's ``_NEIGHBOURS``
  nearest other points in a sector, counting only those at distance
  16 eps or more.  Then pq is dropped when d(p, q) >= 2 delta_2 (1 + 1e-12)
  in q's sector about p, or in p's sector about q.  Proof: let w be one
  of those two neighbours, a = |pw| and b = |pq|, so 16 eps <= a <= b / 2
  and the angle theta between pw and pq is below 60 degrees; allowing
  for the rounding of ``atan2`` and of the differences it reads,
  cos theta >= 0.49.  The law of cosines gives
  |qw|^2 = b^2 + a^2 - 2ab cos theta <= b^2 - a (0.98 b - a)
  <= b^2 - 0.48 ab <= b^2 - 7.68 eps b < (b - 2 eps)^2, and
  a <= b / 2 <= b - 16 eps.  So both neighbours pass the strict lune
  predicate for pq with a margin of eps, far above the relative rounding
  (about 1e-16) of every computed distance, and the lune holds two
  points.  The 16 eps floor keeps near-duplicates out of the certificate
  (they would leave no margin); a sector with fewer than two counted
  neighbours certifies nothing.  The pairs left, a few per cent, go to
  the witness test one list at a time.
* Witness test.  The ``_WITNESSES`` nearest other points of each point
  are its witnesses.  A pair pq is dropped when at least two witnesses of
  p, or at least two witnesses of q, pass the predicate.  Each counted
  witness is a distinct point inside the lune, so a drop proves the lune
  holds two points.  Neither p nor q ever passes: for each of them one of
  the two inequalities reads d(p, q) < d(p, q) - eps.  Up to the switch
  this test runs densely over all pairs, into an n x n count matrix.
* Exact count.  Every pair left is kept when fewer than two points pass.
  Up to the switch each is counted against all n points, in chunks of
  pairs.  Above it, let kd be the distance from a point to the farthest of
  its ``_NEIGHBOURS`` nearest other points.  A pair pq no longer than
  kd(p) is counted over p's neighbours alone, else one no longer than
  kd(q) over q's, and only the rest (a few per thousand) against all n
  points.  This is exact: a point r inside the lune has d(p, r) <
  d(p, q) - eps <= kd(p), and ``argpartition`` keeps every point closer
  than kd(p) among p's neighbours.

A pair is kept exactly when the full count is below two, as in the direct
O(n^3) count, so the result is the same graph, with the same edge order
and lengths; the first two filters only decide which pairs need counting,
and the neighbour lists only which points a count can skip.  The switch
is a size, not an option: up to a few hundred points the number of numpy
calls, not n^2, sets the cost, and the dense pass is faster than the
certificate's fixed cost (measured crossover near n = 512).  Above it the
distance matrix is the only n x n array: nearest neighbours are chosen by
``argpartition`` one row block at a time, and the candidate pairs are
kept as index lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geom import Point2, geometry_eps
from .graph import Graph, make_graph


_WITNESSES = 8  # nearest other points per point tried before the exact count
_NEIGHBOURS = 32  # nearest other points per point read by the sector certificate
_CERTIFY_ABOVE = 512  # n above which the sector certificate runs
_CHUNK = 128  # rows, or survivor pairs, handled at once


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
    dist = _distance_matrix(x, y)
    if n > _CERTIFY_ABOVE:
        iu, ju = _certified_edges(dist, x, y, eps)
    else:
        iu, ju = _dense_survivors(dist, eps)
        keep = _full_count(dist, iu, ju, eps) < 2
        iu, ju = iu[keep], ju[keep]
    return make_graph(n, zip(iu.tolist(), ju.tolist()), dist[iu, ju].tolist())


def _full_count(dist: np.ndarray, iu: np.ndarray, ju: np.ndarray, eps: float) -> np.ndarray:
    """For each pair (iu, ju), the number of points inside its lune, counted
    against all n points, ``_CHUNK`` pairs at a time."""
    count = np.empty(len(iu), dtype=np.intp)
    for s in range(0, len(iu), _CHUNK):
        i, j = iu[s:s + _CHUNK], ju[s:s + _CHUNK]
        thr = (dist[i, j] - eps)[:, None]
        count[s:s + _CHUNK] = ((dist[i] < thr) & (dist[j] < thr)).sum(axis=1)
    return count


def _distance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dense hypot matrix, bit for bit, with one hypot per unordered
    pair: x_j - x_i is exactly -(x_i - x_j) and hypot ignores signs."""
    n = len(x)
    dist = np.empty((n, n))
    for s in range(0, n, _CHUNK):
        blk = np.hypot(x[s:s + _CHUNK, None] - x[s:], y[s:s + _CHUNK, None] - y[s:])
        dist[s:s + _CHUNK, s:] = blk
        dist[s:, s:s + _CHUNK] = blk.T
    return dist


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the min(k, n - 1) nearest other points of each point, in
    no particular order, selected one row block at a time."""
    n = len(dist)
    k = min(k, n - 1)
    np.fill_diagonal(dist, np.inf)
    out = np.empty((n, k), dtype=np.intp)
    for s in range(0, n, _CHUNK):
        out[s:s + _CHUNK] = np.argpartition(dist[s:s + _CHUNK], k - 1, axis=1)[:, :k]
    np.fill_diagonal(dist, 0.0)
    return out


def _dense_survivors(dist: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j, in row-major order, left by the witness test over all pairs."""
    n = len(dist)
    witnesses = _nearest(dist, _WITNESSES)
    # hits[i, j] counts the witnesses of i inside the lune of ij
    hits = np.zeros((n, n), dtype=np.int8)
    for s in range(0, n, _CHUNK):
        rows = np.arange(s, min(s + _CHUNK, n))
        thr = dist[rows] - eps  # strict-interior cutoff of the lune of (row, j)
        block = hits[s:s + _CHUNK]
        for w in witnesses[rows].T:
            block += (dist[rows, w][:, None] < thr) & (dist[w] < thr)
    dropped = hits >= 2
    return np.nonzero(np.triu(~(dropped | dropped.T), 1))


def _certified_edges(dist: np.ndarray, x: np.ndarray, y: np.ndarray,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2-RNG edges i < j, in row-major order: the pairs left by the
    sector certificate and then by the witness test, one row block at a
    time, kept when the exact count finds fewer than two points in their
    lune.  A pair no longer than the distance kd of an endpoint's farthest
    neighbour is counted over that endpoint's neighbours alone: a point
    inside the lune is closer to it than the pair's length - eps <= kd, and
    ``argpartition`` keeps every point closer than kd among them."""
    n = len(dist)
    neighbours = _nearest(dist, _NEIGHBOURS)
    rho, _ = _sector_radii(dist, x, y, eps, neighbours)
    near = np.take_along_axis(dist, neighbours, axis=1)
    kd = near.max(axis=1)
    kw = min(_WITNESSES, neighbours.shape[1])
    witnesses = np.take_along_axis(
        neighbours, np.argpartition(near, kw - 1, axis=1)[:, :kw], axis=1)
    iu, ju = [], []
    for s in range(0, n, _CHUNK):
        i, j = _sector_candidates(dist, x, y, rho, s)
        dij = dist[i, j]
        kept = ((_inside(dist, i, j, dij - eps, witnesses[i]) < 2)
                & (_inside(dist, i, j, dij - eps, witnesses[j]) < 2))
        i, j, dij = i[kept], j[kept], dij[kept]
        at_i = dij <= kd.take(i)
        far = ~at_i & (dij > kd.take(j))
        count = _inside(dist, i, j, dij - eps,
                        np.where(at_i[:, None], neighbours[i], neighbours[j]))
        count[far] = _full_count(dist, i[far], j[far], eps)
        iu.append(i[count < 2])
        ju.append(j[count < 2])
    return np.concatenate(iu), np.concatenate(ju)


def _inside(dist: np.ndarray, i: np.ndarray, j: np.ndarray, thr: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """For each pair (i, j) with cutoff thr = its length - eps, how many of
    the points in its row of w lie strictly inside its lune."""
    flat, n, thr = dist.ravel(), len(dist), thr[:, None]
    return ((flat.take((i * n)[:, None] + w) < thr) & (flat.take((j * n)[:, None] + w) < thr)).sum(axis=1)


def _sector(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The 60 degree sector, 0..5 counter-clockwise from the -x axis, of
    each difference vector (the -x axis itself joins sector 5); the
    opposite vector lies in (sector + 3) % 6."""
    return np.minimum((np.arctan2(dy, dx) * (3.0 / np.pi) + 3.0).astype(np.intp), 5)


def _sector_radii(dist: np.ndarray, x: np.ndarray, y: np.ndarray, eps: float,
                  neighbours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point and sector, the certificate's cutoff rho = 2 delta_2
    (1 + 1e-12), inf when the sector holds fewer than two neighbours at
    distance >= 16 eps, and the two neighbours it names where rho is finite."""
    rows = np.arange(len(x))[:, None]
    near = dist[rows, neighbours]
    sector = _sector(x[neighbours] - x[:, None], y[neighbours] - y[:, None])
    rho = np.full((len(x), 6), np.inf)
    named = np.empty((len(x), 6, 2), dtype=np.intp)
    for c in range(6):
        d = np.where((sector == c) & (near >= 16.0 * eps), near, np.inf)
        two = np.argpartition(d, 1, axis=1)[:, :2]
        d2 = d[rows, two].max(axis=1)
        rho[:, c] = 2.0 * d2 * (1.0 + 1e-12)
        named[:, c] = neighbours[rows, two]
    return rho, named


def _sector_candidates(dist: np.ndarray, x: np.ndarray, y: np.ndarray, rho: np.ndarray,
                       s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j with i in the row block starting at s, in row-major
    order, that the sector certificate with cutoffs rho does not drop."""
    n = len(dist)
    reach = rho.max(axis=1)  # no pair of a point at or beyond it is a candidate
    d = dist[s:s + _CHUNK, s:]
    i, j = np.nonzero((d < reach[s:s + _CHUNK, None]) & (d < reach[s:]))
    upper = j > i
    i, j = i[upper] + s, j[upper] + s
    dij = dist.ravel().take(i * n + j)
    c = _sector(x.take(j) - x.take(i), y.take(j) - y.take(i))  # j's sector about i
    # cutoffs by flat index 6 p + c: of p in sector c, and of p in the sector opposite c
    kept = ((dij < rho.ravel().take(6 * i + c))
            & (dij < np.roll(rho, 3, axis=1).ravel().take(6 * j + c)))
    return i[kept], j[kept]


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
