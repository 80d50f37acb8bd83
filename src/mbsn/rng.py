"""2-relative neighbourhood graph construction and threshold subgraphs.

An edge pq belongs to the 2-RNG exactly when fewer than two other input
points lie strictly inside the lune of pq (the intersection of the two
disks of radius |pq| centred at p and q).  Points on the lune boundary,
up to the instance tolerance, do not count as interior: r is inside the
lune of pq when d(p, r) < d(p, q) - eps and d(q, r) < d(p, q) - eps, with
d the ``hypot`` of the coordinate differences.

The graph is built over one dense matrix of squared distances, filled
without ``hypot``.  The points are first multiplied by the power of two
2^k that puts their largest coordinate magnitude in [2^499, 2^500), with
an axis on which all points agree set to 0 first (its differences stay
0), so the largest is that of an axis with distinct coordinates.  The
differences are then the original ones times 2^k (a coordinate below
2^-1520 of the largest may lose bits, which moves a difference by at most
one rounding), and no square or sum of two squares overflows.  An entry
S(p, r) is (2^k d(p, r))^2 within a relative 2^-48.  So for a length
c > 0 and C = (2^k c)^2 rounded, S(p, r) < C (1 - 2^-40) proves
d(p, r) < c, and S(p, r) >= C (1 + 2^-40) proves d(p, r) > c, with the
roundings of both right-hand sides allowed for; a square between the two
is a close call and proves nothing.  The squares keep that precision
where they are compared: two distinct coordinates on one axis differ by
at least 2^-53 of the larger magnitude, so the scaled diagonal is at least
2^445 and eps, 1e-9 of it, at least 2^415; a cutoff d(p, q) - eps > 0 is a
difference of two floats above eps, so at least 2^-53 eps.  Every
cutoff's square is therefore a normal float above 2^700, and a square
below the normal range (of a near-duplicate pair) errs by less than
2^-1000.  ``hypot`` is called only for the lengths of each point's
``_NEIGHBOURS`` nearest neighbours (the sector radii and kd below), of the
pairs the exact count decides, of close calls, and of the kept edges,
which are thereby the values of a ``hypot`` matrix bit for bit.

Each pair passes through up to three filters, a row block at a time;
only the last one decides, and the first two drop a pair only on a sure
comparison:

* Sector certificate (n > ``_CERTIFY_ABOVE``).  Split the plane about
  each point p into six fixed 60 degree sectors (by ``atan2``), and let
  delta_2 be the distance to the second nearest of p's ``_NEIGHBOURS``
  nearest other points in a sector, counting only those at distance
  16 eps or more.  Then pq is dropped when its square proves
  d(p, q) > 2 delta_2 (1 + 1e-12) in q's sector about p, or in p's sector
  about q.  Proof: let w be one of those two neighbours, a = |pw| and
  b = |pq|, so 16 eps <= a <= b / 2 and the angle theta between pw and pq
  is below 60 degrees; allowing for the rounding of ``atan2`` and of the
  differences it reads, cos theta >= 0.49.  The law of cosines gives
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
  p, or at least two witnesses of q, surely pass the predicate: both
  their squares lie below ((sqrt(S(p, q)) (1 - 2^-40) - 2^k eps)^+)^2
  (1 - 2^-40), which is below (2^k (d(p, q) - eps))^2 (1 - 2^-41) with
  every rounding allowed for.  Each counted witness is a distinct point
  inside the lune, so a drop proves the lune holds two points.  Neither p
  nor q ever passes: for each of them one of the two inequalities reads
  d(p, q) < d(p, q) - eps.  Up to the switch this test runs densely over
  all pairs, into an n x n count matrix; above it q's witnesses are tried
  only on the pairs that p's leave.
* Exact count.  Every pair left is kept when fewer than two points pass.
  Its cutoff d(p, q) - eps comes from ``hypot``; a point is decided by its
  two squares where they are sure, and a pair with a close call is
  counted again by ``hypot`` over the same points.  Up to the switch each
  pair is counted against all n points, in chunks of pairs.  Above it,
  let kd be the distance from a point to the farthest of its
  ``_NEIGHBOURS`` nearest other points, picked by their squares.  A pair
  pq no longer than kd(p) is counted over p's neighbours alone, else one
  no longer than kd(q) over q's, and only the rest (a few per thousand)
  against all n points.  This is exact: a point r inside the lune has
  d(p, r) < d(p, q) - eps <= kd(p) - eps, and eps, 1e-9 of the diagonal,
  is over 10^5 times the rounding of a square (relative 2^-48 of a length
  at most the diagonal), so r's square is below that of p's farthest
  neighbour, and ``argpartition`` keeps r among p's neighbours.

A pair is kept exactly when the full count is below two, as in the direct
O(n^3) count over a ``hypot`` matrix, so the result is the same graph,
with the same edge order and lengths (the kept pairs i < j come in
row-major order, which is the ``Graph``'s lexicographic order, so they are
handed over as they are); the first two filters only decide
which pairs need counting, and the neighbour lists only which points a
count can skip.  The switch is a size, not an option: up to a few hundred
points the number of numpy calls, not n^2, sets the cost, and the dense
pass is faster than the certificate's fixed cost (measured crossover near
n = 512).  Above it the squared distance matrix is the only n x n array:
nearest neighbours are chosen by ``argpartition`` one row block at a time,
and the candidate pairs are kept as index lists.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geom import Point2, geometry_eps
# make_graph: unused, but perfbench's tracer wraps it
from .graph import Graph, make_graph  # noqa: F401


_WITNESSES = 8  # nearest other points per point tried before the exact count
_NEIGHBOURS = 32  # nearest other points per point read by the sector certificate
_CERTIFY_ABOVE = 512  # n above which the sector certificate runs
_CHUNK = 128  # rows, or survivor pairs, handled at once
_BAND = 2.0 ** -40  # relative half-width of a close call, in squares


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
    sq, k = _squared_matrix(x, y)
    if n > _CERTIFY_ABOVE:
        iu, ju = _certified_edges(sq, x, y, k, eps)
    else:
        iu, ju = _dense_survivors(sq, math.ldexp(eps, k))
        keep = _full_count(sq, x, y, k, iu, ju, _lengths(x, y, iu, ju) - eps) < 2
        iu, ju = iu[keep], ju[keep]
    return Graph(n, tuple(zip(iu.tolist(), ju.tolist())), tuple(_lengths(x, y, iu, ju).tolist()))


def _lengths(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The hypot distances of the index pairs (i, j), broadcast: those of a
    hypot matrix bit for bit, as hypot ignores signs."""
    return np.hypot(x[i] - x[j], y[i] - y[j])


def _squared_matrix(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """The dense matrix of squared distances of the points times 2^k, with
    one square per unordered pair (x_j - x_i is exactly -(x_i - x_j)), and
    k, which puts the largest coordinate magnitude in [2^499, 2^500) once
    a constant axis is set to 0."""
    x, y = (np.zeros_like(v) if v.min() == v.max() else v for v in (x, y))
    k = 500 - math.frexp(max(np.abs(x).max(), np.abs(y).max()))[1]
    x, y = np.ldexp(x, k), np.ldexp(y, k)
    n = len(x)
    sq = np.empty((n, n))
    for s in range(0, n, _CHUNK):
        dx = x[s:s + _CHUNK, None] - x[s:]
        dy = y[s:s + _CHUNK, None] - y[s:]
        dx *= dx
        dy *= dy
        dx += dy
        sq[s:s + _CHUNK, s:] = dx
        sq[s:, s:s + _CHUNK] = dx.T
    return sq, k


def _cutoff_squares(c: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For lengths c >= 0, the scaled squares below which a square proves a
    length below c, and at or above which it proves one above c."""
    sq = np.square(np.ldexp(c, k))
    return sq * (1.0 - _BAND), sq * (1.0 + _BAND)


def _sure_cutoff(pair_sq: np.ndarray, eps_k: float) -> np.ndarray:
    """For pairs pq with squares pair_sq, the squares below which a point is
    surely closer than d(p, q) - eps (eps_k = 2^k eps); 0, which no square
    is below, where the pair is not surely longer than eps."""
    v = np.sqrt(pair_sq)
    v *= 1.0 - _BAND
    v -= eps_k
    np.maximum(v, 0.0, out=v)
    v *= v
    v *= 1.0 - _BAND
    return v


def _full_count(sq: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, iu: np.ndarray,
                ju: np.ndarray, t: np.ndarray) -> np.ndarray:
    """For each pair (iu, ju) with cutoff t = its length - eps, the number of
    points inside its lune, counted against all n points, ``_CHUNK`` pairs
    at a time."""
    count = np.empty(len(iu), dtype=np.intp)
    for s in range(0, len(iu), _CHUNK):
        part = slice(s, s + _CHUNK)
        count[part] = _lune_count(sq, x, y, k, iu[part], ju[part], t[part])
    return count


def _lune_count(sq: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, i: np.ndarray,
                j: np.ndarray, t: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """For each pair (i, j) with cutoff t = its length - eps, how many of the
    points in its row of w (of all n points when w is None) lie strictly
    inside its lune: decided by the squares, and by hypot for a pair with a
    close call.  A point is inside when the larger of its two squares is
    surely below the cutoff, and outside when it is surely above."""
    if w is None:
        far = sq[i]
        np.maximum(far, sq[j], out=far)
    else:
        far = _larger_squares(sq, i, j, w)
    below, above = _cutoff_squares(np.maximum(t, 0.0), k)  # t <= 0: no point is inside
    count = np.count_nonzero(far < below[:, None], axis=1)
    close = np.nonzero(np.count_nonzero(far < above[:, None], axis=1) > count)[0]
    if len(close):
        count[close] = _hypot_count(x, y, i[close], j[close], t[close],
                                    np.arange(len(sq)) if w is None else w[close])
    return count


def _hypot_count(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray, t: np.ndarray,
                 w: np.ndarray) -> np.ndarray:
    """The lune count by hypot: for each pair (i, j) with cutoff t, how many
    of the points in its row of w (or in w, when it is one row for all) pass
    the strict predicate."""
    i, j, t = i[:, None], j[:, None], t[:, None]
    return ((_lengths(x, y, i, w) < t) & (_lengths(x, y, j, w) < t)).sum(axis=1)


def _nearest(sq: np.ndarray, k: int) -> np.ndarray:
    """Indices of the min(k, n - 1) nearest other points of each point, by
    the squared distances sq, in no particular order, selected one row
    block at a time."""
    n = len(sq)
    k = min(k, n - 1)
    np.fill_diagonal(sq, np.inf)
    out = np.empty((n, k), dtype=np.intp)
    for s in range(0, n, _CHUNK):
        out[s:s + _CHUNK] = np.argpartition(sq[s:s + _CHUNK], k - 1, axis=1)[:, :k]
    np.fill_diagonal(sq, 0.0)
    return out


def _dense_survivors(sq: np.ndarray, eps_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j, in row-major order, left by the witness test over all
    pairs (eps_k = 2^k eps)."""
    n = len(sq)
    witnesses = _nearest(sq, _WITNESSES)
    # hits[i, j] counts the witnesses of i surely inside the lune of ij
    hits = np.zeros((n, n), dtype=np.int8)
    for s in range(0, n, _CHUNK):
        rows = np.arange(s, min(s + _CHUNK, n))
        cut = _sure_cutoff(sq[rows], eps_k)  # sure strict-interior cutoff of the lune of (row, j)
        block = hits[s:s + _CHUNK]
        for w in witnesses[rows].T:
            block += np.maximum(sq[rows, w][:, None], sq[w]) < cut
    dropped = hits >= 2
    return np.nonzero(np.triu(~(dropped | dropped.T), 1))


def _certified_edges(sq: np.ndarray, x: np.ndarray, y: np.ndarray, k: int,
                     eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2-RNG edges i < j, in row-major order: the pairs left by the
    sector certificate and then by the witness test, one row block at a
    time, kept when the exact count finds fewer than two points in their
    lune.  A pair no longer than the distance kd of an endpoint's farthest
    neighbour is counted over that endpoint's neighbours alone: a point
    inside the lune is closer to it than the pair's length - eps <= kd, so
    its square is below that of the farthest neighbour, and
    ``argpartition`` keeps every such point among them."""
    n = len(sq)
    neighbours = _nearest(sq, _NEIGHBOURS)
    near = _lengths(x, y, np.arange(n)[:, None], neighbours)
    rho, _ = _sector_radii(near, x, y, eps, neighbours)
    _, rho_sq = _cutoff_squares(rho, k)
    kd = near.max(axis=1)
    kw = min(_WITNESSES, neighbours.shape[1])
    witnesses = np.take_along_axis(
        neighbours, np.argpartition(near, kw - 1, axis=1)[:, :kw], axis=1)
    eps_k = math.ldexp(eps, k)
    iu, ju = [], []
    for s in range(0, n, _CHUNK):
        i, j = _sector_candidates(sq, x, y, rho_sq, s)
        cut = _sure_cutoff(sq.ravel().take(i * n + j), eps_k)
        kept = _inside(sq, i, j, cut, witnesses[i]) < 2
        i, j, cut = i[kept], j[kept], cut[kept]
        kept = _inside(sq, i, j, cut, witnesses[j]) < 2
        i, j = i[kept], j[kept]
        dij = _lengths(x, y, i, j)
        at_i = dij <= kd.take(i)
        far = ~at_i & (dij > kd.take(j))
        count = _lune_count(sq, x, y, k, i, j, dij - eps,
                            np.where(at_i[:, None], neighbours[i], neighbours[j]))
        count[far] = _full_count(sq, x, y, k, i[far], j[far], dij[far] - eps)
        iu.append(i[count < 2])
        ju.append(j[count < 2])
    return np.concatenate(iu), np.concatenate(ju)


def _inside(sq: np.ndarray, i: np.ndarray, j: np.ndarray, cut: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """For each pair (i, j) with sure cutoff cut, how many of the points in
    its row of w surely lie strictly inside its lune."""
    return np.count_nonzero(_larger_squares(sq, i, j, w) < cut[:, None], axis=1)


def _larger_squares(sq: np.ndarray, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """For each pair (i, j) and point r in its row of w, the larger of the
    squares of ir and jr: r is inside the lune when it is below the cutoff."""
    flat, n = sq.ravel(), len(sq)
    far = flat.take((i * n)[:, None] + w)
    return np.maximum(far, flat.take((j * n)[:, None] + w), out=far)


def _sector(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """The 60 degree sector, 0..5 counter-clockwise from the -x axis, of
    each difference vector (the -x axis itself joins sector 5); the
    opposite vector lies in (sector + 3) % 6."""
    return np.minimum((np.arctan2(dy, dx) * (3.0 / np.pi) + 3.0).astype(np.intp), 5)


def _sector_radii(near: np.ndarray, x: np.ndarray, y: np.ndarray, eps: float,
                  neighbours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point and sector, the certificate's cutoff rho = 2 delta_2
    (1 + 1e-12), inf when the sector holds fewer than two neighbours at
    distance >= 16 eps, and the two neighbours it names where rho is finite;
    near holds the lengths to the neighbours.  One sort of each row by
    (sector, length), the uncounted neighbours last, puts each sector's
    nearest two at the sector's start."""
    n, k = near.shape
    rows = np.arange(n)[:, None]
    sector = _sector(x[neighbours] - x[:, None], y[neighbours] - y[:, None])
    sector[near < 16.0 * eps] = 6
    order = np.lexsort((near, sector))
    count = np.bincount((sector + 7 * rows).ravel(), minlength=7 * n).reshape(n, 7)[:, :6]
    two = np.minimum((np.cumsum(count, axis=1) - count)[:, :, None] + [0, 1], k - 1)
    pick = order[rows[:, :, None], two]  # each sector's nearest two, where it has them
    rho = np.where(count >= 2, 2.0 * near[rows, pick[:, :, 1]] * (1.0 + 1e-12), np.inf)
    return rho, neighbours[rows[:, :, None], pick]


def _sector_candidates(sq: np.ndarray, x: np.ndarray, y: np.ndarray, rho_sq: np.ndarray,
                       s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j with i in the row block starting at s, in row-major
    order, that the sector certificate does not drop; a pair is dropped
    when its square is at or above rho_sq, the square that proves a length
    above the cutoff rho."""
    n = len(sq)
    reach = rho_sq.max(axis=1)  # no pair of a point at or beyond it is a candidate
    d = sq[s:s + _CHUNK, s:]
    i, j = np.nonzero((d < reach[s:s + _CHUNK, None]) & (d < reach[s:]))
    upper = j > i
    i, j = i[upper] + s, j[upper] + s
    dij = sq.ravel().take(i * n + j)
    c = _sector(x.take(j) - x.take(i), y.take(j) - y.take(i))  # j's sector about i
    # cutoffs by flat index 6 p + c: of p in sector c, and of p in the sector opposite c
    kept = ((dij < rho_sq.ravel().take(6 * i + c))
            & (dij < np.roll(rho_sq, 3, axis=1).ravel().take(6 * j + c)))
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
    lengths = np.sort(g.lengths)  # not np.unique, whose first call imports numpy.ma (1.6 MB)
    lengths = lengths[np.diff(lengths, prepend=-np.inf) > 0].tolist()
    if include_zero and (not lengths or lengths[0] > 0.0):
        lengths.insert(0, 0.0)
    return tuple(lengths)
