import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from mbsn import geom, scsd
from mbsn.geom import Point2, circumcenter, distance, geometry_eps
from mbsn.scsd import (ScsdContext, color_system, coupled_two_disk, nearest_per_color,
                       smallest_color_spanning_disk)

from conftest import grid_min_spanning_radius, property_sets as _property_sets


def _dist(p, q):
    """|pq| as the solver's objective computes it (``np.hypot``)."""
    return float(np.hypot(p.x - q.x, p.y - q.y))


def class_radius(cs, z):
    """The reference objective f(z): max over colours of the distance to the nearest point."""
    return max(min(_dist(z, p) for p in cls) for cls in cs.classes)


def _index_classes(systems, extra=()):
    """A context of ``extra`` and then the systems' distinct points, in order
    of first appearance, and each system's classes as index lists into it."""
    index = {p: t for t, p in enumerate(extra)}
    for cs in systems:
        for p in itertools.chain.from_iterable(cs.classes):
            index.setdefault(p, len(index))
    return ScsdContext(list(index)), [[[index[p] for p in c] for c in cs.classes] for cs in systems]


def _coupled(cs1, cs2, *args, extra=()):
    """``coupled_two_disk`` on colour systems, through ``_index_classes``."""
    ctx, (classes1, classes2) = _index_classes((cs1, cs2), extra)
    return coupled_two_disk(ctx, classes1, classes2, *args)


def test_two_singletons_diametric():
    res = smallest_color_spanning_disk(color_system([[Point2(0, 0)], [Point2(10, 0)]]))
    assert res.disk.center == Point2(5.0, 0.0)
    assert res.disk.radius == pytest.approx(5.0)
    assert len(res.determinators) == 2


def test_three_singletons_circumcentre():
    res = smallest_color_spanning_disk(
        color_system([[Point2(0, 0)], [Point2(4, 0)], [Point2(2, 3)]]))
    assert res.disk.center.x == pytest.approx(2.0)
    assert res.disk.center.y == pytest.approx(5.0 / 6.0)
    assert res.disk.radius == pytest.approx(13.0 / 6.0)


def test_single_class_zero_radius():
    res = smallest_color_spanning_disk(color_system([[Point2(7, 7)]]))
    assert res.disk.radius == 0.0
    assert res.disk.center == Point2(7.0, 7.0)
    assert res.determinators == (Point2(7.0, 7.0),)


def test_single_class_lexicographic_pick():
    res = smallest_color_spanning_disk(
        color_system([[Point2(3, 1), Point2(0, 5), Point2(0, 2)]]))
    assert res.disk.radius == 0.0
    assert res.disk.center == Point2(0.0, 2.0)


def test_empty_class_rejected():
    with pytest.raises(ValueError):
        color_system([[Point2(0, 0)], []])


def test_nearest_per_color():
    cs = color_system([[Point2(0, 0), Point2(0, 1)], [Point2(10, 0)]])
    assert nearest_per_color(Point2(5, 0), cs) == (Point2(0, 0), Point2(10, 0))


def test_nearest_per_color_coincident():
    cs = color_system([[Point2(1, 1)], [Point2(1, 1), Point2(5, 5)]])
    picks = nearest_per_color(Point2(1, 1), cs)
    assert picks == (Point2(1, 1), Point2(1, 1))


def test_nearest_per_color_tie_lexicographic():
    cs = color_system([[Point2(1, 0), Point2(0, 1)]])
    assert nearest_per_color(Point2(0, 0), cs) == (Point2(0, 1),)


def test_scsd_against_grid_oracle():
    rng = random.Random(21)
    for trial in range(200):
        q = rng.randint(1, 5)
        classes = []
        for _ in range(q):
            size = rng.randint(1, max(1, 30 // q))
            classes.append([(rng.random(), rng.random()) for _ in range(size)])
        cs = color_system([[Point2(x, y) for x, y in c] for c in classes])
        res = smallest_color_spanning_disk(cs)
        gmin, slack = grid_min_spanning_radius(classes, -0.1, 1.1, 140)
        assert res.disk.radius <= gmin + 1e-9, trial
        assert res.disk.radius >= gmin - slack - 1e-9, trial
        # determinators are on the boundary; nearest points are within it
        for p in res.determinators:
            assert abs(distance(res.disk.center, p) - res.disk.radius) <= 1e-9
        for p in res.nearest_per_color:
            assert distance(res.disk.center, p) <= res.disk.radius + 1e-9


def test_scsd_monotone_in_class_growth():
    rng = random.Random(33)
    for _ in range(100):
        q = rng.randint(2, 4)
        classes = [[(rng.random(), rng.random())
                    for _ in range(rng.randint(1, 5))] for _ in range(q)]
        cs = color_system([[Point2(x, y) for x, y in c] for c in classes])
        base = smallest_color_spanning_disk(cs).disk.radius
        grown = [list(c) for c in classes]
        grown[rng.randrange(q)].append((rng.random(), rng.random()))
        cs2 = color_system([[Point2(x, y) for x, y in c] for c in grown])
        assert smallest_color_spanning_disk(cs2).disk.radius <= base + 1e-12


def test_coupled_collinear_three_legs():
    cs1 = color_system([[Point2(0, 0)]])
    cs2 = color_system([[Point2(10, 0)]])
    s1, s2, r = _coupled(cs1, cs2)
    assert r == pytest.approx(10.0 / 3.0)
    assert s1.x == pytest.approx(10.0 / 3.0)
    assert s2.x == pytest.approx(20.0 / 3.0)


def test_coupled_quartic_balance():
    cs1 = color_system([[Point2(0, 0)], [Point2(0, 2)]])
    cs2 = color_system([[Point2(10, 0)], [Point2(10, 2)]])
    s1, s2, r = _coupled(cs1, cs2)
    a = (40.0 - math.sqrt(412.0)) / 6.0
    assert r == pytest.approx(10.0 - 2.0 * a, abs=1e-9)
    assert s1.y == pytest.approx(1.0)
    assert s2.y == pytest.approx(1.0)


def test_coupled_degenerate_coincident():
    cs = color_system([[Point2(0, 0)]])
    s1, s2, r = _coupled(cs, cs)
    assert r == pytest.approx(0.0, abs=1e-12)
    assert s1 == s2 == Point2(0.0, 0.0)


def test_coupled_dominates_independent_and_anchored():
    rng = random.Random(55)
    for _ in range(60):
        q1, q2 = rng.randint(1, 3), rng.randint(1, 3)
        mk = lambda q: color_system([[Point2(rng.random(), rng.random())
                                      for _ in range(rng.randint(1, 4))]
                                     for _ in range(q)])
        cs1, cs2 = mk(q1), mk(q2)
        s1, s2, r = _coupled(cs1, cs2)
        # reported value is the honest objective of the returned pair
        direct = max(class_radius(cs1, s1), class_radius(cs2, s2), _dist(s1, s2))
        assert r == pytest.approx(direct, abs=1e-12)
        # never worse than the independent construction
        c1 = smallest_color_spanning_disk(cs1)
        c2 = smallest_color_spanning_disk(cs2)
        indep = max(c1.disk.radius, c2.disk.radius,
                    distance(c1.disk.center, c2.disk.center))
        assert r <= indep + 1e-12


def test_coupled_against_grid_oracle():
    rng = random.Random(101)
    for trial in range(25):
        q1, q2 = rng.randint(1, 2), rng.randint(1, 2)
        mk = lambda q: [[(rng.random(), rng.random())
                         for _ in range(rng.randint(1, 3))] for _ in range(q)]
        a, b = mk(q1), mk(q2)
        cs1 = color_system([[Point2(x, y) for x, y in c] for c in a])
        cs2 = color_system([[Point2(x, y) for x, y in c] for c in b])
        _, _, r = _coupled(cs1, cs2)
        # coarse 4-d grid upper bound: the solver must not be beaten by it
        k = 24
        import numpy as np
        xs = np.linspace(-0.1, 1.1, k)
        pts = [(x, y) for x in xs for y in xs]
        f1 = [max(min(math.dist(z, p) for p in c) for c in a) for z in pts]
        f2 = [max(min(math.dist(z, p) for p in c) for c in b) for z in pts]
        best = min(
            max(f1[i], f2[j], math.dist(pts[i], pts[j]))
            for i in range(len(pts)) for j in range(len(pts)))
        assert r <= best + 1e-9, trial


def _eager_rows(points):
    """Every candidate enumerated up front, in the row order of ``ScsdContext.candidates``:
    points lexsorted, pair midpoints in triu order, circumcentres of the
    triples not collinear to rounding (obtuse ones included) in
    combinations order; with the vertices each row is made of."""
    pts = np.array([p.as_tuple() for p in points], dtype=float)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    rows, members = [pts[order]], [(int(v),) for v in order]
    ii, jj = np.triu_indices(len(pts), 1)
    rows.append((pts[ii] + pts[jj]) / 2.0)
    members += list(zip(ii.tolist(), jj.tolist()))
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        bb, cc = pts[j] - pts[i], pts[k] - pts[i]
        cr = bb[0] * cc[1] - bb[1] * cc[0]
        if abs(cr) > geom._ROUNDING * (abs(bb[0] * cc[1]) + abs(bb[1] * cc[0])):
            b2, c2 = bb[0] * bb[0] + bb[1] * bb[1], cc[0] * cc[0] + cc[1] * cc[1]
            ux = (cc[1] * b2 - bb[1] * c2) / (2.0 * cr)
            uy = (bb[0] * c2 - cc[0] * b2) / (2.0 * cr)
            rows.append((pts[i] + np.array([ux, uy]))[None, :])
            members.append((i, j, k))
    return pts, np.vstack(rows), members


def _non_obtuse(pts, i, j, k):
    """No angle of the triangle above 90 degrees, to the rounding slack of ``candidates``."""
    bb, cc = pts[j] - pts[i], pts[k] - pts[i]
    b2, c2, dot = bb[0] * bb[0] + bb[1] * bb[1], cc[0] * cc[0] + cc[1] * cc[1], bb[0] * cc[0] + bb[1] * cc[1]
    slack = geom._ROUNDING * (b2 + c2)
    return -slack <= dot and dot <= b2 + slack and dot <= c2 + slack


def _labels(classes):
    """Each vertex's class; a vertex in several classes has a label of its own."""
    label = {}
    for b, c in enumerate(classes):
        for v in c:
            label[v] = b if label.get(v, b) == b else -1 - v
    return label


def _filtered_eager_rows(points, classes, radius):
    """The eager rows ``candidates`` keeps for ``classes`` and ``radius``: the
    query's points; rows of two or three of its vertices whose labels differ
    and that lie pairwise within 2 radius + eps; triples only past two
    classes, and only non-obtuse ones."""
    pts, rows, members = _eager_rows(points)
    label, eps = _labels(classes), geometry_eps(points)

    def kept(m):
        if any(v not in label for v in m):
            return False
        if len(m) == 3 and (len(classes) <= 2 or not _non_obtuse(pts, *m)):
            return False
        return all(label[a] != label[b] and math.dist(pts[a], pts[b]) <= 2.0 * radius + eps
                   for a, b in itertools.combinations(m, 2))

    return rows[[t for t, m in enumerate(members) if kept(m)]]


def _eager_objective(points, classes):
    pts, cand, _ = _eager_rows(points)
    dist = np.hypot(cand[:, None, 0] - pts[None, :, 0], cand[:, None, 1] - pts[None, :, 1])
    return cand, np.max([dist[:, cls].min(axis=1) for cls in classes], axis=0)


def _eager_best_center(points, classes):
    """The optimum over the eager rows; first minimum wins."""
    cand, f = _eager_objective(points, classes)
    i = int(np.argmin(f))
    center = Point2(float(cand[i, 0]), float(cand[i, 1]))
    picks = tuple(min(cls, key=lambda v: (math.hypot(points[v].x - center.x,
                                                     points[v].y - center.y),
                                          points[v].x, points[v].y))
                  for cls in classes)
    return float(f[i]), center, picks


def _random_classes(rng, n, c):
    """c nonempty classes over a random subset of range(n)."""
    idx = rng.sample(range(n), rng.randint(c, n))
    classes = [[v] for v in idx[:c]]
    for v in idx[c:]:
        classes[rng.randrange(c)].append(v)
    return [sorted(cls) for cls in classes]


def _degenerate_sets():
    yield [Point2(float(x), float(y)) for x in range(5) for y in range(5)]
    yield [Point2(0.5 + 0.1 * i, 0.25 + 0.2 * i) for i in range(12)]
    yield [Point2(0.5 + 0.3 * math.cos(2 * math.pi * i / 12),
                  0.5 + 0.3 * math.sin(2 * math.pi * i / 12)) for i in range(12)]


def _assert_eager_optimum(points, classes, got, rounding=False):
    """``got`` against the eager optimum: tuple-equal when one eager row
    attains it; otherwise the same radius, the objective at the returned
    centre equal to it, and the centre within 1e-12 of an eager minimiser.
    With ``rounding``, the eager minimum may also sit below the radius by
    rounding alone, at a row outside the query's candidates: within 1e-12
    relative, at a centre within 1e-12 of the returned one.  Returns
    whether the optimum was tied or rounded."""
    cand, f = _eager_objective(points, classes)
    r, c, picks = got
    rows = np.flatnonzero(f == f.min())
    pts = np.array([p.as_tuple() for p in points])
    assert r == max(np.hypot(c.x - pts[cls, 0], c.y - pts[cls, 1]).min() for cls in classes)
    assert picks == tuple(min(cls, key=lambda v: (math.hypot(points[v].x - c.x, points[v].y - c.y),
                                                  points[v].x, points[v].y)) for cls in classes)
    if rounding and r > f.min():
        assert r - f.min() <= 1e-12 * r, (points, classes)
    elif len(rows) == 1:
        assert got == _eager_best_center(points, classes), (points, classes)
        return False
    else:
        assert r == f.min(), (points, classes)
    assert np.hypot(cand[rows, 0] - c.x, cand[rows, 1] - c.y).min() <= 1e-12, (points, classes)
    return True


def test_small_triangles_far_from_the_origin_keep_their_circumcentres():
    # three classes of three points from N(0, 0.035^2), one with (1, 1) too,
    # against the same systems shifted by (1e6, 1e6): the collinearity rule
    # reads the rounding of the triangle's own relative coordinates, so the
    # radius moves only by the rounding of the shifted coordinates (a rule
    # scaled by the largest coordinate dropped these circumcentres and moved
    # 159 of the 200 radii, the worst by 44 %)
    rng = random.Random(5)
    shift = 1e6
    for _ in range(200):
        classes = [[(rng.gauss(0, 0.035), rng.gauss(0, 0.035)) for _ in range(3)] for _ in range(3)]
        classes[0].append((1.0, 1.0))
        far = [[Point2(x + shift, y + shift) for x, y in c] for c in classes]
        near = [[Point2(p.x - shift, p.y - shift) for p in c] for c in far]  # exact
        r = smallest_color_spanning_disk(color_system(near)).disk.radius
        got = smallest_color_spanning_disk(color_system(far)).disk.radius
        assert abs(got - r) <= 1e-9 * r + 2.0 * math.ulp(shift), (classes, r, got)


def test_lazy_context_equals_eager_enumeration():
    # the query-local candidates against every row, enumerated up front
    rng = random.Random(404)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(rng.randint(3, 16))]
            for _ in range(8)] + list(_degenerate_sets())
    for points in sets:
        for _ in range(12):
            classes = _random_classes(rng, len(points), rng.randint(1, min(5, len(points))))
            _assert_eager_optimum(points, classes, ScsdContext(points).best_center(classes))


def test_best_center_property_against_eager_rows():
    # lattices, collinear and cocircular sets, near-duplicate pairs at
    # 1e-10 of the diagonal and far clusters; the classes are disjoint, or
    # side classes plus an h1 that contains them, as case 2 asks
    rng = random.Random(413)
    ties = queries = 0
    for name, points in _property_sets(rng):
        ctx = ScsdContext(points)
        for _ in range(8):
            classes = _random_classes(rng, len(points), rng.randint(1, min(4, len(points))))
            if rng.random() < 0.5:
                h1 = sorted(set(rng.sample(range(len(points)), rng.randint(1, len(points))))
                            | {v for c in classes[:rng.randint(1, len(classes))] for v in c})
                classes = classes + [h1]
            ties += _assert_eager_optimum(points, classes, ctx.best_center(classes), True)
            queries += 1
    assert queries == 128 and 0 < ties < queries


def test_context_rows_grow_once_and_stay_consistent():
    rng = random.Random(405)
    points = [Point2(rng.random(), rng.random()) for _ in range(14)]
    two = [[0, 1, 2, 3], [4, 5, 6]]
    four = [[0, 1, 2, 3], [7, 8], [9, 10, 11], [12, 13]]  # shares a class with two
    ctx = ScsdContext(points)
    for classes in (two, four, two, [[4, 5, 6], [9, 10]]):
        assert ctx.best_center(classes) == ScsdContext(points).best_center(classes)


def test_context_row_counts():
    # the context holds its points only; with R = inf and one label per
    # point ``candidates`` gives one row per point, per pair and per
    # non-collinear, non-obtuse triple: the anchor set of coupled_two_disk
    rng = random.Random(406)
    lattice = [Point2(float(x), float(y)) for x in range(4) for y in range(4)]
    for points in ([Point2(rng.random(), rng.random()) for _ in range(11)], lattice):
        n = len(points)
        ctx = ScsdContext(points)
        assert len(ctx.cand) == n and ctx.dist.shape == (n, n)
        assert np.array_equal(ctx.cand, _eager_rows(points)[1][:n])
        pts = np.array([p.as_tuple() for p in points])
        triples = sum(1 for i, j, k in itertools.combinations(range(n), 3)
                      if _non_obtuse(pts, i, j, k) and (pts[j, 0] - pts[i, 0]) * (pts[k, 1] - pts[i, 1])
                      != (pts[j, 1] - pts[i, 1]) * (pts[k, 0] - pts[i, 0]))
        rows = ctx.candidates([[v] for v in range(n)], math.inf)
        assert len(rows) == n + n * (n - 1) // 2 + triples
        # two classes: no circumcentre rows, whatever the radius
        assert len(ctx.candidates([[0, 1], [2, 3, 4]], math.inf)) == 5 + 6


def test_objective_values_equal_eager_rows():
    # the rows of ``candidates`` are the eager rows its filters keep, in order and
    # bit for bit, and at a radius R >= the optimum they hold it: the least
    # objective value over them equals the eager minimum; random sets, a
    # lattice, collinear, cocircular, near-duplicate and far-cluster sets
    rng = random.Random(408)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(n)] for n in (3, 4, 5, 9, 17)]
    sets += list(_degenerate_sets()) + [points for _, points in _property_sets(rng)]
    held = 0
    for points in sets:
        ctx, pts = ScsdContext(points), np.array([p.as_tuple() for p in points])
        for _ in range(4):
            classes = _random_classes(rng, len(points), rng.randint(1, min(4, len(points))))
            if rng.random() < 0.3:  # a class sharing vertices with another
                classes.append(sorted(rng.sample(range(len(points)), rng.randint(1, len(points)))))
            cand, f = _eager_objective(points, classes)
            assert np.array_equal(ctx.radii(classes, cand), f)  # bit for bit
            r = float(f.min())
            for radius in (math.inf, r, 2.0 * r, rng.random() * r):
                rows = ctx.candidates(classes, radius)
                assert np.array_equal(rows, _filtered_eager_rows(points, classes, radius))
                if radius >= r:
                    got = np.max([np.hypot(rows[:, None, 0] - pts[None, c, 0],
                                           rows[:, None, 1] - pts[None, c, 1]).min(axis=1)
                                  for c in classes], axis=0).min()
                    assert r <= got <= r + 1e-12 * max(1.0, r), (points, classes, radius)
                    held += 1
    assert held > 100


def test_small_queries_skip_the_circumcentre_rows():
    # with at most two classes ``candidates`` gives no circumcentre rows, also
    # when a vertex in both classes has a label of its own, and best_center
    # answers the same on a shared context as on fresh ones
    rng = random.Random(409)
    points = [Point2(rng.random(), rng.random()) for _ in range(20)]
    ctx = ScsdContext(points)
    for classes in ([list(range(6, 20)), [0, 1, 2]], [[7, 8]], [[3], [4, 5]],
                    [[0, 1, 2], [1, 2, 3]], [[0, 1, 2], [3], [4, 5]]):
        assert ctx.best_center(classes) == ScsdContext(points).best_center(classes)
        label = _labels(classes)
        pairs = sum(label[a] != label[b] for a, b in itertools.combinations(label, 2))
        rows = len(ctx.candidates(classes, math.inf)) - len(label) - pairs  # circumcentre rows
        assert rows == 0 if len(classes) <= 2 else rows > 0, classes
    assert "cand" not in vars(ctx)


def test_wide_query_memory_stays_below_the_dense_block():
    # a 4-class query with a 90-point class on 96 points: the dense
    # circumcentre block would be C(96,3) x 96 doubles, 110 MB
    rng = random.Random(410)
    points = [Point2(rng.random(), rng.random()) for _ in range(96)]
    ctx = ScsdContext(points)
    classes = [list(range(90)), [90, 91], [92], [93, 94, 95]]
    tracemalloc.start()
    try:
        got = ctx.best_center(classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 55 * 2**20
    r, center, picks = got
    assert r == pytest.approx(max(min(distance(center, points[v]) for v in cls)
                                  for cls in classes), abs=1e-12)


def test_coupled_radius_is_the_objective_of_its_pair():
    # the reported radius is the full objective of the returned pair, bit
    # for bit: no partially evaluated candidate value is ever recorded
    rng = random.Random(412)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(8)] for _ in range(6)]
    for points in sets + list(_degenerate_sets()):
        for _ in range(4):
            sample = rng.sample(points, min(8, len(points)))
            classes = _random_classes(rng, len(sample), rng.randint(2, 4))
            cut = rng.randint(1, len(classes) - 1)
            cs1 = color_system([[sample[v] for v in c] for c in classes[:cut]])
            cs2 = color_system([[sample[v] for v in c] for c in classes[cut:]])
            s1, s2, r = _coupled(cs1, cs2)
            assert r == max(class_radius(cs1, s1), class_radius(cs2, s2), _dist(s1, s2))


def test_coupled_bound_returns_none_exactly_at_or_above_the_radius():
    # with a bound the solver returns None exactly when the unbounded radius
    # reaches it, and otherwise the identical triple; half the radius is
    # often below max(f1, f2), where it returns before any candidate
    rng = random.Random(413)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(8)] for _ in range(6)]
    for points in sets + list(_degenerate_sets()):
        for _ in range(3):
            sample = rng.sample(points, min(8, len(points)))
            classes = _random_classes(rng, len(sample), rng.randint(2, 4))
            cut = rng.randint(1, len(classes) - 1)
            cs1 = color_system([[sample[v] for v in c] for c in classes[:cut]])
            cs2 = color_system([[sample[v] for v in c] for c in classes[cut:]])
            full = _coupled(cs1, cs2)
            r = full[2]
            for bound in (r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf),
                          r / 2.0, 2.0 * r + 1.0):
                assert _coupled(cs1, cs2, bound) == (None if r >= bound else full)


def _lattice_pair(seed):
    """Two colour systems of 10-14 distinct lattice points each: a dense
    two-colour block, and a sparser one of 2-4 colours shifted beside it."""
    rng = random.Random(seed)

    def side(q, w, ox, oy):
        cells = rng.sample([(x, y) for x in range(w) for y in range(w)], rng.randint(10, 14))
        classes = [[] for _ in range(q)]
        for j, (x, y) in enumerate(cells):
            classes[j % q].append(Point2(float(x + ox), float(y + oy)))
        return color_system(classes)

    return side(2, 4, 0, 0), side(rng.randint(2, 4), 5, rng.randint(4, 7), rng.randint(0, 3))


def _exhaustive_anchored(cs1, cs2):
    """The best anchored pair over every eager row of both sides, obtuse
    circumcentres included, with no skip and no cap."""
    best = math.inf
    for csa, csb, swap in ((cs1, cs2, False), (cs2, cs1, True)):
        for x, y in _eager_rows([p for c in csa.classes for p in c])[1].tolist():
            a = Point2(x, y)
            z = smallest_color_spanning_disk(color_system(csb.classes + ((a,),))).disk.center
            s1, s2 = (z, a) if swap else (a, z)
            best = min(best, max(_dist(s1, s2), class_radius(cs1, s1), class_radius(cs2, s2)))
    return best


def _grid_coupled(cs1, cs2, k=32):
    """A numpy grid upper bound on the coupled optimum: both centres on a
    k x k grid over the points' box."""
    pts = np.array([p.as_tuple() for cs in (cs1, cs2) for c in cs.classes for p in c])
    xs = np.linspace(pts[:, 0].min() - 0.5, pts[:, 0].max() + 0.5, k)
    ys = np.linspace(pts[:, 1].min() - 0.5, pts[:, 1].max() + 0.5, k)
    grid = np.array([(x, y) for x in xs for y in ys])

    def f(cs):
        return np.max([np.min([np.hypot(grid[:, 0] - p.x, grid[:, 1] - p.y) for p in c], axis=0)
                       for c in cs.classes], axis=0)

    d = np.hypot(grid[:, None, 0] - grid[None, :, 0], grid[:, None, 1] - grid[None, :, 1])
    return float(np.maximum(np.maximum(f(cs1)[:, None], f(cs2)[None, :]), d).min())


def test_coupled_anchor_bound_against_exhaustive_anchors(monkeypatch):
    # 10-14 points a side, with more than 64 anchor rows below the optimum
    # (so a cap at 64 anchors would be in force); in these systems the best
    # anchor has f_b(a) above the incumbent, so a bound without the /2
    # would skip it.  The exhaustive anchors include the obtuse
    # circumcentres ``candidates`` leaves out, and so certify that leaving
    # them, and the cross-class-triple family, out loses nothing
    for seed in (102,):
        cs1, cs2 = _lattice_pair(seed)
        _, _, r = _coupled(cs1, cs2)
        pts = [p for c in cs1.classes for p in c]
        rows = ScsdContext(pts).candidates([[v] for v in range(len(pts))], math.inf)
        assert sum(class_radius(cs1, Point2(x, y)) < r for x, y in rows.tolist()) > 64, seed
        assert r <= _exhaustive_anchored(cs1, cs2), seed
        assert r <= _grid_coupled(cs1, cs2) + 1e-9, seed
    # the degenerate sets, each split into two colour systems: no anchor
    # row, obtuse circumcentres included, gives a better pair
    rng = random.Random(414)
    for name, points in _property_sets(rng):
        classes = _random_classes(rng, len(points), rng.randint(2, min(4, len(points))))
        cut = rng.randint(1, len(classes) - 1)
        cs1, cs2 = (color_system([[points[v] for v in c] for c in part])
                    for part in (classes[:cut], classes[cut:]))
        assert _coupled(cs1, cs2)[2] <= _exhaustive_anchored(cs1, cs2), name
    # only a bound past the incumbent by eps may skip an anchor: (0, 4)
    # mirrors (0, 0), whose pair is worth exactly its bound f_b / 2, so the
    # bound of (0, 4) ties the incumbent (0, 0) leaves, and (0, 4) is solved
    solved = []
    anchored = scsd._anchored
    monkeypatch.setattr(scsd, "_anchored",
                        lambda pts, classes, a: solved.append(a.as_tuple()) or anchored(pts, classes, a))
    _coupled(color_system([[Point2(-1, 0), Point2(-1, 4)], [Point2(1, 0), Point2(1, 4)]]),
                     color_system([[Point2(0.5, 2)]]))
    assert solved == [(0.0, 0.0), (0.0, 4.0)]


def test_coupled_on_a_wide_shared_context_equals_a_context_of_its_points():
    # the solver passes the probe's context, which holds every terminal: the
    # two systems among far extra points (other indices, a larger eps) give
    # the same triple as a context of only their points
    rng = random.Random(415)
    for trial in range(40):
        cs1, cs2 = (color_system([[Point2(rng.random(), rng.random()) for _ in range(rng.randint(1, 4))]
                                  for _ in range(rng.randint(1, 3))]) for _ in range(2))
        extra = [Point2(rng.uniform(-60.0, 60.0), rng.choice((-1, 1)) * rng.uniform(20.0, 60.0))
                 for _ in range(rng.randint(1, 12))]
        wide = _coupled(cs1, cs2, extra=extra)
        assert wide == _coupled(cs1, cs2), trial
        assert _index_classes((cs1, cs2), extra)[0].eps > 10.0 * geometry_eps(
            [p for cs in (cs1, cs2) for c in cs.classes for p in c])


def test_circumcenter_collinearity_is_the_candidates_rule():
    # geom.circumcenter is None exactly when ``candidates`` has no
    # circumcentre row for a non-obtuse triple, and otherwise equals that
    # row bit for bit: lattice, collinear, cocircular, near-duplicate and
    # far-cluster sets, random sets, small triangles shifted by 1e6, a
    # 1 x 1e-10 rectangle (right triangles that a rule scaled by the squared
    # diagonal called collinear) and a square with a repeated corner
    rng = random.Random(416)
    sets = [points for _, points in _property_sets(rng)] + list(_degenerate_sets())
    sets += [[Point2(x, y) for x in (0.0, 1.0) for y in (0.0, 1e-10)],
             [Point2(0.0, 0.0)] + [Point2(x, y) for x in (0.0, 1.0) for y in (0.0, 1.0)]]
    sets += [[Point2(rng.random(), rng.random()) for _ in range(10)] for _ in range(3)]
    sets += [[Point2(1e6 + rng.gauss(0, 0.035), 1e6 + rng.gauss(0, 0.035)) for _ in range(10)]
             for _ in range(3)]
    kept = dropped = 0
    for points in sets:
        triples = list(itertools.combinations(points, 3))
        for tri in rng.sample(triples, min(120, len(triples))):
            if not _non_obtuse(np.array([p.as_tuple() for p in tri]), 0, 1, 2):
                continue
            rows = ScsdContext(tri).candidates([[0], [1], [2]], math.inf)
            c = circumcenter(*tri)
            assert (c is None) == (len(rows) == 6), tri
            if c is None:
                dropped += 1
            else:
                assert c.as_tuple() == tuple(rows[6].tolist()), tri
                kept += 1
    assert kept > 100 and dropped > 0
