"""Smallest colour-spanning disks and the coupled two-disk solver.

A colour-spanning disk must contain at least one point of every colour
class.  The optimum of c classes is the minimum enclosing disk of one
nearest point per class: at most min(c, 3) determinators, so points, pair
midpoints and (for c >= 3) triple circumcentres are exact candidates, and a
query needs only those made of its own points.  The coupled solver places
two adjacent disk centres whose mutual distance also counts towards the
objective.  Every query runs on an ``ScsdContext``, classes being index
lists into its points, and ``ScsdContext.radii`` values every candidate
centre that is not one of them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import _ROUNDING, Circle, Point2, distance, geometry_eps, real_quartic_roots


@dataclass(frozen=True)
class ColorSystem:
    """Nonempty point classes, one colour per class."""

    classes: tuple[tuple[Point2, ...], ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("colour system needs at least one class")
        if any(not cls for cls in self.classes):
            raise ValueError("empty colour class")


def color_system(classes: Sequence[Sequence[Point2]]) -> ColorSystem:
    return ColorSystem(tuple(tuple(c) for c in classes))


@dataclass(frozen=True)
class ScsdResult:
    disk: Circle
    determinators: tuple[Point2, ...]
    nearest_per_color: tuple[Point2, ...]


def _fold(classes: Sequence[Sequence[int]], d: np.ndarray) -> np.ndarray:
    """Max over classes of the least of their columns of ``d`` (one per member, class by class)."""
    return np.minimum.reduceat(d, [0, *itertools.accumulate(map(len, classes[:-1]))], axis=1).max(axis=1)


class ScsdContext:
    """Colour-disk queries on one fixed point set; classes are index lists
    into ``points``, and ``dist`` is their n x n distance matrix.

    A context holds no candidate rows.  ``candidates`` builds the rows of one
    query (its points, midpoints and circumcentres that can determine a disk
    of radius at most R), for the k = 2 pair search and the coupled solver's
    anchors; ``best_center`` values the same families with its own R.
    ``cand`` is the point family of every such row set over all n points:
    the points in lexicographic order.
    """

    def __init__(self, points: Sequence[Point2]):
        self.points = tuple(points)
        self.eps = geometry_eps(points)
        n = len(points)
        self._pts = pts = np.array([[p.x, p.y] for p in points], dtype=float).reshape(n, 2)
        self.dist = pts[:, None, 0] - pts[None, :, 0]
        np.hypot(self.dist, pts[:, None, 1] - pts[None, :, 1], out=self.dist)

    @functools.cached_property
    def cand(self) -> np.ndarray:
        return self._pts[np.lexsort((self._pts[:, 1], self._pts[:, 0]))]

    def _labels(self, classes: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
        """The query's vertices, ascending, and each one's class; a vertex
        in several classes gets a label of its own, -1 - v."""
        if any(len(c) == 0 for c in classes):
            raise ValueError("empty colour class")
        owner: dict[int, int] = {}
        for b, c in enumerate(classes):
            for v in c:
                owner[v] = b if owner.get(v, b) == b else -1 - v
        ids = sorted(owner)
        return np.array(ids, dtype=np.intp), np.array([owner[v] for v in ids])

    def _pairs(self, d: np.ndarray, own: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Positions i < j, in triu order, of the differently labelled pairs
        within 2 radius (+ eps); ``d`` is the query's own distance block."""
        i, j = np.nonzero(d <= 2.0 * radius + self.eps)
        keep = (i < j) & (own.take(i) != own.take(j))
        return i[keep], j[keep]

    def _triangles(self, u: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Circumcentres of the triples of u whose three pairs are all among
        (i, j), in combinations order, save those of obtuse triangles and of
        triangles collinear to the rounding of their relative coordinates;
        both tests give way to that rounding."""
        near = np.zeros((len(u), len(u)), dtype=bool)
        near[i, j] = True
        t, k = np.nonzero(near[i] & near[j])
        a = self._pts[u[i[t]]]
        bb, cc = self._pts[u[j[t]]] - a, self._pts[u[k]] - a
        b2, c2, dot = (bb * bb).sum(axis=1), (cc * cc).sum(axis=1), (bb * cc).sum(axis=1)
        cross = bb[:, 0] * cc[:, 1] - bb[:, 1] * cc[:, 0]
        slack = _ROUNDING * (b2 + c2)  # no angle above 90 degrees, to rounding
        ok = ((np.abs(cross) > _ROUNDING * (np.abs(bb[:, 0] * cc[:, 1]) + np.abs(bb[:, 1] * cc[:, 0])))
              & (dot >= -slack) & (dot <= b2 + slack) & (dot <= c2 + slack))
        bb, cc, a, cr, b2, c2 = bb[ok], cc[ok], a[ok], cross[ok], b2[ok], c2[ok]
        ux = (cc[:, 1] * b2 - bb[:, 1] * c2) / (2.0 * cr)
        uy = (bb[:, 0] * c2 - cc[:, 0] * b2) / (2.0 * cr)
        return a + np.stack([ux, uy], axis=1)

    def candidates(self, classes: Sequence[Sequence[int]], radius: float) -> np.ndarray:
        """Candidate centres for ``classes``, and for any query whose classes
        are subsets of theirs, one each, as far as its optimum is at most
        ``radius``: the query's points (lexicographic), the midpoints of
        differently labelled pairs within 2 radius (i < j over ascending
        vertices) and, past two classes, the circumcentres of differently
        labelled non-obtuse triples pairwise within 2 radius (combinations
        order).  Exact: an optimal disk's determinators can be taken as one
        active point per class, pairwise within twice its radius, and a
        minimal set of them whose hull holds the centre is a point, a pair or
        a non-obtuse triangle (a right one's circumcentre is a midpoint)."""
        u, own = self._labels(classes)
        pts = self._pts.take(u, 0)
        i, j = self._pairs(self.dist[np.ix_(u, u)], own, radius)
        rows = [pts[np.lexsort((pts[:, 1], pts[:, 0]))], (pts.take(i, 0) + pts.take(j, 0)) / 2.0]
        if len(classes) > 2:
            rows.append(self._triangles(u, i, j))
        return np.vstack(rows)

    def best_center(self, classes: Sequence[Sequence[int]]) -> tuple[float, Point2, tuple[int, ...]]:
        """Minimise max-over-classes of min-distance; returns radius, centre,
        and one nearest vertex index per class (ties lexicographic by point).

        Only the query's own candidates are valued, one candidates x class
        points block per family, each family the one ``candidates`` builds:
        its points; midpoints within 2R, R the best point value (with two
        classes, R <= half the closest such pair's distance, so only the
        closest pairs); with >= 3 classes, circumcentres within 2R', R' the
        best point or midpoint value.  Exact: the optimum's determinators
        stand for different classes on a circle of radius r* <= R' <= R.
        Tie rule: the first minimal candidate wins, in the order points
        (lexicographic), (i, j) midpoints, (i, j, k) circumcentres.
        """
        u, own = self._labels(classes)
        flat = np.fromiter(itertools.chain.from_iterable(classes), np.intp)  # class by class
        pts, rows = self._pts.take(u, 0), self.dist.take(u, 0)
        f, d = _fold(classes, rows.take(flat, 1)), rows.take(u, 1)  # the points' values from dist
        r = float(f.min())
        center = min(self.points[u[t]].as_tuple() for t in np.nonzero(f == r)[0])
        for triples in (False, True) if len(classes) > 2 else (False,):
            if r == 0.0:
                break  # a zero radius at a point is final
            i, j = self._pairs(d, own, r)
            if len(classes) == 2 and len(i):  # R <= half the closest pair's distance
                keep = d[i, j] <= d[i, j].min() + self.eps
                i, j = i[keep], j[keep]
            c = self._triangles(u, i, j) if triples else (pts.take(i, 0) + pts.take(j, 0)) / 2.0
            if len(c):
                f = self.radii(classes, c)
                t = int(f.argmin())
                if f[t] < r:
                    r, center = float(f[t]), (float(c[t, 0]), float(c[t, 1]))
        center = Point2(*center)
        return r, center, tuple(self.nearest_in_class(center, cls) for cls in classes)

    def radii(self, classes: Sequence[Sequence[int]], centres: np.ndarray) -> np.ndarray:
        """The objective at each row of ``centres``: the max over classes of
        the least distance to a point of the class."""
        x, y = self._pts.take(np.fromiter(itertools.chain.from_iterable(classes), np.intp), 0).T
        return _fold(classes, np.hypot(centres[:, :1] - x, centres[:, 1:] - y))

    def nearest_in_class(self, x: Point2, cls: Sequence[int]) -> int:
        best = None
        for v in cls:
            p = self.points[v]
            key = (math.hypot(p.x - x.x, p.y - x.y), p.x, p.y)
            if best is None or key < best[0]:
                best = (key, v)
        assert best is not None
        return best[1]


def nearest_per_color(x: Point2, cs: ColorSystem) -> tuple[Point2, ...]:
    """One closest point per colour; ties broken lexicographically by (x, y)."""
    return tuple(min(cls, key=lambda p: (distance(x, p), p.x, p.y)) for cls in cs.classes)


def smallest_color_spanning_disk(cs: ColorSystem) -> ScsdResult:
    """Exact SCSD by candidate enumeration over points, midpoints and
    circumcentres, with the nearest-per-colour set computed at the centre."""
    pts = [p for cls in cs.classes for p in cls]
    ends = itertools.accumulate(map(len, cs.classes))
    ctx = ScsdContext(pts)
    r, center, picks = ctx.best_center([range(e - len(c), e) for c, e in zip(cs.classes, ends)])
    nearest = tuple(pts[v] for v in picks)
    tol = ctx.eps
    on = sorted({p.as_tuple() for p in nearest if abs(distance(center, p) - r) <= tol})
    dets = (nearest[0],) if r <= tol else tuple(Point2(x, y) for x, y in on)
    return ScsdResult(Circle(center, r), dets, nearest)


def _anchored(points: Sequence[Point2], classes: Sequence[Sequence[int]], anchor: Point2) -> Point2:
    """The best centre for ``classes`` (index lists into ``points``) whose
    disk must also reach ``anchor``, a class of its own."""
    return ScsdContext([*points, anchor]).best_center([*classes, [len(points)]])[1]


def coupled_two_disk(ctx: ScsdContext, classes1: Sequence[Sequence[int]],
                     classes2: Sequence[Sequence[int]], bound: float = math.inf,
                     enough: float = -math.inf) -> tuple[Point2, Point2, float] | None:
    """Place adjacent centres s1, s2 minimising
    max(f1(s1), f2(s2), |s1 s2|) where f_i is the colour-spanning objective
    of ``classes_i``, index lists into ``ctx.points``; None when no pair
    goes strictly below ``bound``.

    Every candidate pair of ``_candidate_pairs`` is valued by ``ctx.radii``,
    one family at a time.  The incumbent starts at ``bound``; every pair is
    worth at least max(min f1, min f2), so the call ends when that reaches
    ``bound`` + eps.  A family's new incumbent is its first pair at most
    ``enough`` below the incumbent, which is then returned at once, or else
    its first least pair below the incumbent: the pair a scan with a strict
    < would keep.
    """
    (r1, c1, _), (r2, c2, _) = ctx.best_center(classes1), ctx.best_center(classes2)
    if max(r1, r2) >= bound + ctx.eps:
        return None
    best: list = [bound, None, None]
    for s1, s2 in _candidate_pairs(ctx, classes1, classes2, c1, c2, best):
        # cheapest term first; a term >= the incumbent already rules a pair out
        val = np.hypot(*(s1 - s2).T)
        rows = np.arange(len(s1))
        for classes, s in ((classes1, s1), (classes2, s2)):
            rows, val = rows[val < best[0]], val[val < best[0]]
            if len(rows):
                val = np.maximum(val, ctx.radii(classes, s.take(rows, 0)))
        hit = np.flatnonzero(val < best[0])
        if len(hit):
            low = hit[val.take(hit) <= enough]
            t = low[0] if len(low) else hit[val.take(hit).argmin()]
            best[:] = float(val[t]), Point2(*s1[rows[t]].tolist()), Point2(*s2[rows[t]].tolist())
            if best[0] <= enough:
                break
    return None if best[1] is None else (best[1], best[2], best[0])


def _candidate_pairs(ctx: ScsdContext, classes1: Sequence[Sequence[int]],
                     classes2: Sequence[Sequence[int]], c1: Point2, c2: Point2, best: list):
    """The coupled solver's candidate families, each a pair of arrays of s1
    and s2 rows whose prunes read the incumbent ``best[0]`` as it starts.
    They cover every stationary structure of the objective: the independent
    optima c1, c2, the merged optimum, one centre anchored to the other, the
    collinear three-leg balance, and the fully coupled configurations where
    each centre is pinned by one or two of its own points plus the partner
    (quadratic and quartic systems)."""
    yield np.array([c1.as_tuple()]), np.array([c2.as_tuple()])
    cm = np.array([ctx.best_center([*classes1, *classes2])[1].as_tuple()])
    yield cm, cm

    sides = []
    for classes in (classes1, classes2):
        u, own = ctx._labels(classes)
        d = ctx.dist.take(u, 0).take(u, 1)
        i, j = ctx._pairs(d, own, math.inf)
        i, j = i[d[i, j] > 0.0], j[d[i, j] > 0.0]  # cross-class pairs of distinct points
        pts = ctx._pts.take(u, 0)
        p, q = pts.take(i, 0), pts.take(j, 0)
        n = np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]])
        # the distinct points in lexicographic order; per pair its midpoint,
        # half length and unit bisector direction
        sides.append((u, np.array(sorted(set(map(tuple, pts.tolist())))),
                      ((p + q) / 2.0, d[i, j] / 2.0, n / np.hypot(n[:, :1], n[:, 1:]))))
    (u1, pts1, pairs1), (u2, pts2, pairs2) = sides

    # Three collinear legs p - s1 - s2 - q, each of length |pq| / 3.
    p, q = np.repeat(pts1, len(pts2), 0), np.tile(pts2, (len(pts1), 1))
    yield p + (q - p) / 3.0, p + 2.0 * (q - p) / 3.0

    # A centre the partner edge does not pin sits at one of its side's
    # candidate rows (every point a class of its own), and the anchored solve
    # there gives the best partner.  Anchors go in ascending f_a with no cap:
    # f_b is 1-Lipschitz, so a pair anchored at a is worth at least
    # max(f_a(a), f_b(a) / 2), and one where that reaches the incumbent + eps
    # (eps covers rounding) cannot beat it.  An anchor that can win has f_a
    # below the incumbent, and an unpinned centre's determinators lie within
    # f_a of it, so pairwise within twice the incumbent: the rows with R = the
    # incumbent hold every such anchor.  They keep the unbounded rows' order,
    # so the stable sort tries them in the same order; a dropped row can only
    # tie the optimum.
    for ua, ca, ub, cb, swap in ((u1, classes1, u2, classes2, False),
                                 (u2, classes2, u1, classes1, True)):
        rows = ctx.candidates([[v] for v in ua], best[0])
        fa, fb = ctx.radii(ca, rows), ctx.radii(cb, rows)
        pos = {v: t for t, v in enumerate(ub.tolist())}
        sub, local = [ctx.points[v] for v in pos], [[pos[v] for v in c] for c in cb]
        seen: set[tuple[float, float]] = set()
        for i in np.argsort(fa, kind="stable"):
            if fa[i] >= best[0]:
                break  # ascending, so no later anchor can do better
            key = (float(rows[i, 0]), float(rows[i, 1]))
            if fb[i] / 2.0 >= best[0] + ctx.eps or key in seen:
                continue
            seen.add(key)
            z = np.array([_anchored(sub, local, Point2(*key)).as_tuple()])
            yield (z, rows[i:i + 1]) if swap else (rows[i:i + 1], z)

    # One side pinned by a cross-class pair, the other by a single point,
    # partner distance active on both: quadratic along the bisector.  Per
    # pair and point: the crossing roots (NaN when there are none), the
    # projection of the point onto the bisector, and the pair midpoint; the
    # minimum of the two branches along the bisector is always one of these.
    for (m, h, n), singles, swap in ((pairs1, pts2, False), (pairs2, pts1, True)):
        if not len(m):
            continue
        wx, wy = m[:, :1] - singles[:, 0], m[:, 1:] - singles[:, 1]  # pairs x singles
        a = wx * n[:, :1] + wy * n[:, 1:]
        disc = a * a - 3.0 * (4.0 * h[:, None] * h[:, None] - (wx * wx + wy * wy))
        root = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        v = np.stack([-a, np.zeros_like(a), (a + root) / 3.0, (a - root) / 3.0], axis=2)
        pair, single, _ = np.nonzero(~np.isnan(v))
        sa = m[pair] + v[~np.isnan(v)][:, None] * n[pair]
        sb = (singles[single] + sa) / 2.0
        yield (sb, sa) if swap else (sa, sb)

    # Both sides pinned by cross-class pairs plus the partner distance:
    # a quartic in the bisector parameter of side 1.
    if not (len(pairs1[0]) and len(pairs2[0])):
        return
    (m1, h1, n1), (m2, h2, n2) = ((m[h < best[0]], h[h < best[0]], n[h < best[0]])
                                  for m, h, n in (pairs1, pairs2))
    s, t = np.nonzero(np.hypot(m1[:, None, 0] - m2[None, :, 0], m1[:, None, 1] - m2[None, :, 1])
                      <= 3.0 * best[0] + ctx.eps)
    w, n1, n2 = m1[s] - m2[t], n1[s], n2[t]
    a, b, c = (w * n1).sum(1), (w * n2).sum(1), (n1 * n2).sum(1)
    kk, ee = (w * w).sum(1) - h2[t] * h2[t], h1[s] * h1[s] - h2[t] * h2[t]
    quartics = (1.0 - 4.0 * c * c, 4.0 * a - 8.0 * b * c,
                4.0 * a * a + 2.0 * kk - 4.0 * b * b - 4.0 * c * c * ee,
                4.0 * a * kk - 8.0 * b * c * ee, kk * kk - 4.0 * b * b * ee)
    found: list[tuple[int, float, float]] = []
    # one pair of pairs at a time, on Python floats
    terms = zip(zip(*(x.tolist() for x in quartics)), *(x.tolist() for x in (a, b, c, kk, ee)))
    for k, (coeffs, a, b, c, kk, ee) in enumerate(terms):
        if max(map(abs, coeffs)) == 0.0:
            continue
        for u in real_quartic_roots(*coeffs):
            vv = u * u + ee
            if vv < -ctx.eps:
                continue
            den = 2.0 * (c * u + b)
            if abs(den) > 1e-12 * max(1.0, abs(u)):
                found.append((k, u, (u * u + 2.0 * a * u + kk) / den))
            if vv >= 0.0:
                root = math.sqrt(max(vv, 0.0))
                found.extend(((k, u, root), (k, u, -root)))
    if found:
        k, u, v = (np.array(x) for x in zip(*found))
        yield m1[s[k]] + u[:, None] * n1[k], m2[t[k]] + v[:, None] * n2[k]
