"""Smallest colour-spanning disks and the coupled two-disk solver.

A colour-spanning disk must contain at least one point of every colour
class.  The optimum of c classes is the minimum enclosing disk of one
nearest point per class: at most min(c, 3) determinators, so points, pair
midpoints and (for c >= 3) triple circumcentres are exact candidates, and a
query needs only those made of its own points.  The coupled solver places
two adjacent disk centres whose mutual distance also counts towards the
objective.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import Circle, Point2, distance, geometry_eps, real_quartic_roots

# a bound, with room, on the relative rounding error of a sum of two products
# of coordinate differences: each difference, product and the sum is rounded
# once, 4u in all (u = eps / 2)
_ROUNDING = 4.0 * np.finfo(float).eps


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
        pts, cols, rows = self._pts.take(u, 0), self._pts.take(flat, 0), self.dist.take(u, 0)
        starts = [0, *itertools.accumulate(map(len, classes[:-1]))]

        def values(block: np.ndarray) -> np.ndarray:  # candidates x class columns
            return np.minimum.reduceat(block, starts, axis=1).max(axis=1)

        f = values(rows.take(flat, 1))
        r = float(f.min())
        center = min(self.points[u[t]].as_tuple() for t in np.nonzero(f == r)[0])
        for triples in (False, True) if len(classes) > 2 else (False,):
            if r == 0.0:
                break  # a zero radius at a point is final
            d = rows.take(u, 1)
            i, j = self._pairs(d, own, r)
            if len(classes) == 2 and len(i):  # R <= half the closest pair's distance
                keep = d[i, j] <= d[i, j].min() + self.eps
                i, j = i[keep], j[keep]
            c = self._triangles(u, i, j) if triples else (pts.take(i, 0) + pts.take(j, 0)) / 2.0
            if len(c):
                f = values(np.hypot(c[:, :1] - cols[:, 0], c[:, 1:] - cols[:, 1]))
                t = int(f.argmin())
                if f[t] < r:
                    r, center = float(f[t]), (float(c[t, 0]), float(c[t, 1]))
        center = Point2(*center)
        return r, center, tuple(self.nearest_in_class(center, cls) for cls in classes)

    def nearest_in_class(self, x: Point2, cls: Sequence[int]) -> int:
        best = None
        for v in cls:
            p = self.points[v]
            key = (math.hypot(p.x - x.x, p.y - x.y), p.x, p.y)
            if best is None or key < best[0]:
                best = (key, v)
        assert best is not None
        return best[1]


def _flatten(cs: ColorSystem) -> tuple[list[Point2], list[list[int]]]:
    pts = [p for cls in cs.classes for p in cls]
    ends = itertools.accumulate(map(len, cs.classes))
    return pts, [list(range(e - len(c), e)) for c, e in zip(cs.classes, ends)]


def class_radius(cs: ColorSystem, z: Point2) -> float:
    """Objective f(z): max over colours of the distance to the nearest point."""
    return max(min(distance(z, p) for p in cls) for cls in cs.classes)


def _class_radii(cs: ColorSystem, rows: np.ndarray) -> np.ndarray:
    """f at each row of centres, one point at a time."""
    return functools.reduce(np.maximum, (functools.reduce(
        np.minimum, (np.hypot(rows[:, 0] - p.x, rows[:, 1] - p.y) for p in cls)) for cls in cs.classes))


def nearest_per_color(x: Point2, cs: ColorSystem) -> tuple[Point2, ...]:
    """One closest point per colour; ties broken lexicographically by (x, y)."""
    return tuple(min(cls, key=lambda p: (distance(x, p), p.x, p.y)) for cls in cs.classes)


def smallest_color_spanning_disk(cs: ColorSystem) -> ScsdResult:
    """Exact SCSD by candidate enumeration over points, midpoints and
    circumcentres, with the nearest-per-colour set computed at the centre."""
    pts, classes = _flatten(cs)
    ctx = ScsdContext(pts)
    r, center, _ = ctx.best_center(classes)
    nearest = nearest_per_color(center, cs)
    tol = max(ctx.eps, 1e-12 * (1.0 + r))
    if r <= tol:
        dets: tuple[Point2, ...] = (nearest[0],)
    else:
        dets = tuple(sorted({p.as_tuple() for p in nearest
                             if abs(distance(center, p) - r) <= tol}))
        dets = tuple(Point2(x, y) for x, y in dets)
    return ScsdResult(Circle(center, r), dets, nearest)


def _cross_class_pairs(classes: list[list[Point2]]) -> list[tuple[Point2, Point2]]:
    pairs = []
    seen = set()
    for i, ci in enumerate(classes):
        for cj in classes[i + 1:]:
            for p in ci:
                for q in cj:
                    key = tuple(sorted((p.as_tuple(), q.as_tuple())))
                    if p.as_tuple() != q.as_tuple() and key not in seen:
                        seen.add(key)
                        pairs.append((p, q))
    return pairs


def _anchored_center(cs: ColorSystem, anchor: Point2) -> tuple[float, Point2]:
    """Best disk for cs that must also reach the anchor point."""
    aug = ColorSystem(cs.classes + ((anchor,),))
    res = smallest_color_spanning_disk(aug)
    return res.disk.radius, res.disk.center


def coupled_two_disk(cs1: ColorSystem, cs2: ColorSystem, bound: float = math.inf,
                     enough: float = -math.inf) -> tuple[Point2, Point2, float] | None:
    """Place adjacent centres s1, s2 minimising
    max(f1(s1), f2(s2), |s1 s2|) where f_i is the colour-spanning objective;
    None when no pair goes strictly below ``bound``.

    Candidates cover every stationary structure of the objective:
    independent optima, one centre anchored to the other, the collinear
    three-leg balance, and the fully coupled configurations where each
    centre is pinned by one or two of its own points plus the partner
    (quadratic and quartic systems).  A centre the partner edge does not
    pin sits at one of its side's candidate rows, and the anchored solve
    there gives the best partner.  Every candidate is validated by direct
    objective evaluation.

    Anchors are tried in ascending f_a with no cap: f_b is 1-Lipschitz, so a
    pair anchored at a is worth at least LB = max(f_a(a), f_b(a) / 2), and an
    anchor with LB >= incumbent + eps (eps covers rounding) cannot pass
    ``consider``'s strict <.  The incumbent starts at ``bound``; every pair
    is worth at least max(min f1, min f2), so the call ends when that reaches
    ``bound`` + eps.  ``consider`` says when a new incumbent is at most
    ``enough``, and then it is returned at once.
    """
    all_pts = [p for cls in cs1.classes for p in cls] + [p for cls in cs2.classes for p in cls]
    eps = geometry_eps(all_pts)
    best: list = [bound, None, None]

    def consider(s1: Point2, s2: Point2) -> bool:
        # cheapest term first; a term >= the incumbent already rules the pair out
        val = distance(s1, s2)
        if val >= best[0]:
            return False
        val = max(val, class_radius(cs1, s1))
        if val >= best[0]:
            return False
        val = max(val, class_radius(cs2, s2))
        if val >= best[0]:
            return False
        best[0], best[1], best[2] = val, s1, s2
        return val <= enough

    r1 = smallest_color_spanning_disk(cs1)
    r2 = smallest_color_spanning_disk(cs2)
    if max(r1.disk.radius, r2.disk.radius) >= bound + eps:
        return None
    if consider(r1.disk.center, r2.disk.center):
        return best[1], best[2], best[0]

    merged = ColorSystem(cs1.classes + cs2.classes)
    cm = smallest_color_spanning_disk(merged).disk.center
    if consider(cm, cm):
        return best[1], best[2], best[0]

    pts1, pts2 = ([Point2(*xy) for xy in sorted({p.as_tuple() for cls in cs.classes for p in cls})]
                  for cs in (cs1, cs2))

    # Three collinear legs p - s1 - s2 - q, each of length |pq| / 3.
    for p in pts1:
        for q in pts2:
            if consider(Point2(p.x + (q.x - p.x) / 3.0, p.y + (q.y - p.y) / 3.0),
                        Point2(p.x + 2.0 * (q.x - p.x) / 3.0, p.y + 2.0 * (q.y - p.y) / 3.0)):
                return best[1], best[2], best[0]

    # Rest one side at any of its locally optimal disk structures (its own
    # candidate centres, every point a class of its own, cheapest first) and
    # re-solve the other side with that centre as an extra colour.  This
    # covers optima where the busy side sits at a non-global local minimum
    # close to the quiet side.
    for (csa, csb, swap) in ((cs1, cs2, False), (cs2, cs1, True)):
        apts = _flatten(csa)[0]
        rows = ScsdContext(apts).candidates([[v] for v in range(len(apts))], math.inf)
        fvals, fb = _class_radii(csa, rows), _class_radii(csb, rows)
        seen_anchor: set[tuple[float, float]] = set()
        for i in np.argsort(fvals, kind="stable"):
            # a structure whose own radius already reaches the incumbent
            # cannot produce a better pair (ascending order, so stop)
            if fvals[i] >= best[0]:
                break
            if fb[i] / 2.0 >= best[0] + eps:
                continue
            anchor = Point2(float(rows[i, 0]), float(rows[i, 1]))
            key = anchor.as_tuple()
            if key in seen_anchor:
                continue
            seen_anchor.add(key)
            _, z = _anchored_center(csb, anchor)
            if consider(z, anchor) if swap else consider(anchor, z):
                return best[1], best[2], best[0]

    pairs1 = _cross_class_pairs([list(c) for c in cs1.classes])
    pairs2 = _cross_class_pairs([list(c) for c in cs2.classes])

    # One side pinned by a cross-class pair, the other by a single point,
    # partner distance active on both: quadratic along the bisector.
    for (pairs, singles, swap) in ((pairs1, pts2, False), (pairs2, pts1, True)):
        for p1, p2 in pairs:
            mx, my = (p1.x + p2.x) / 2.0, (p1.y + p2.y) / 2.0
            h = distance(p1, p2) / 2.0
            dx, dy = p2.y - p1.y, p1.x - p2.x
            dn = math.hypot(dx, dy)
            if dn == 0.0:
                continue
            dx, dy = dx / dn, dy / dn
            for q in singles:
                wx, wy = mx - q.x, my - q.y
                a = wx * dx + wy * dy
                c0 = 4.0 * h * h - (wx * wx + wy * wy)
                disc = a * a - 3.0 * c0
                # crossing roots, the projection of q onto the bisector, and
                # the pair midpoint: the minimum of the two branches along
                # the bisector family is always one of these
                cands_v = [-a, 0.0]
                if disc >= 0.0:
                    cands_v += [(a + math.sqrt(disc)) / 3.0,
                                (a - math.sqrt(disc)) / 3.0]
                for v in cands_v:
                    sa = Point2(mx + v * dx, my + v * dy)
                    sb = Point2((q.x + sa.x) / 2.0, (q.y + sa.y) / 2.0)
                    if consider(sb, sa) if swap else consider(sa, sb):
                        return best[1], best[2], best[0]

    # Both sides pinned by cross-class pairs plus the partner distance:
    # a quartic in the bisector parameter of side 1.
    for p1, p2 in pairs1:
        m1x, m1y = (p1.x + p2.x) / 2.0, (p1.y + p2.y) / 2.0
        h1 = distance(p1, p2) / 2.0
        if h1 >= best[0]:
            continue
        d1x, d1y = p2.y - p1.y, p1.x - p2.x
        n1 = math.hypot(d1x, d1y)
        d1x, d1y = d1x / n1, d1y / n1
        for q1, q2 in pairs2:
            h2 = distance(q1, q2) / 2.0
            if h2 >= best[0]:
                continue
            m2x, m2y = (q1.x + q2.x) / 2.0, (q1.y + q2.y) / 2.0
            if math.hypot(m1x - m2x, m1y - m2y) > 3.0 * best[0] + eps:
                continue
            d2x, d2y = q2.y - q1.y, q1.x - q2.x
            n2 = math.hypot(d2x, d2y)
            d2x, d2y = d2x / n2, d2y / n2
            wx, wy = m1x - m2x, m1y - m2y
            a = wx * d1x + wy * d1y
            b = wx * d2x + wy * d2y
            c = d1x * d2x + d1y * d2y
            kk = wx * wx + wy * wy - h2 * h2
            ee = h1 * h1 - h2 * h2
            q4 = 1.0 - 4.0 * c * c
            q3 = 4.0 * a - 8.0 * b * c
            q2c = 4.0 * a * a + 2.0 * kk - 4.0 * b * b - 4.0 * c * c * ee
            q1c = 4.0 * a * kk - 8.0 * b * c * ee
            q0 = kk * kk - 4.0 * b * b * ee
            if max(abs(q4), abs(q3), abs(q2c), abs(q1c), abs(q0)) == 0.0:
                continue
            for u in real_quartic_roots(q4, q3, q2c, q1c, q0):
                vv = u * u + ee
                if vv < -eps:
                    continue
                den = 2.0 * (c * u + b)
                cands_v = []
                if abs(den) > 1e-12 * max(1.0, abs(u)):
                    cands_v.append((u * u + 2.0 * a * u + kk) / den)
                if vv >= 0.0:
                    root = math.sqrt(max(vv, 0.0))
                    cands_v.extend((root, -root))
                for v in cands_v:
                    if consider(Point2(m1x + u * d1x, m1y + u * d1y),
                                Point2(m2x + v * d2x, m2y + v * d2y)):
                        return best[1], best[2], best[0]

    return None if best[1] is None else (best[1], best[2], best[0])
