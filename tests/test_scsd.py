import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from mbsn import scsd
from mbsn.geom import Point2, bbox_diagonal, distance, geometry_eps
from mbsn.scsd import (ColorSystem, ScsdContext, color_system, class_radius,
                       coupled_two_disk, nearest_per_color, smallest_color_spanning_disk)

from conftest import grid_min_spanning_radius


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
    s1, s2, r = coupled_two_disk(cs1, cs2)
    assert r == pytest.approx(10.0 / 3.0)
    assert s1.x == pytest.approx(10.0 / 3.0)
    assert s2.x == pytest.approx(20.0 / 3.0)


def test_coupled_quartic_balance():
    cs1 = color_system([[Point2(0, 0)], [Point2(0, 2)]])
    cs2 = color_system([[Point2(10, 0)], [Point2(10, 2)]])
    s1, s2, r = coupled_two_disk(cs1, cs2)
    a = (40.0 - math.sqrt(412.0)) / 6.0
    assert r == pytest.approx(10.0 - 2.0 * a, abs=1e-9)
    assert s1.y == pytest.approx(1.0)
    assert s2.y == pytest.approx(1.0)


def test_coupled_degenerate_coincident():
    cs = color_system([[Point2(0, 0)]])
    s1, s2, r = coupled_two_disk(cs, cs)
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
        s1, s2, r = coupled_two_disk(cs1, cs2)
        # reported value is the honest objective of the returned pair
        direct = max(class_radius(cs1, s1), class_radius(cs2, s2), distance(s1, s2))
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
        _, _, r = coupled_two_disk(cs1, cs2)
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
    """Every candidate enumerated up front, in the context's row order:
    points lexsorted, pair midpoints in triu order, non-collinear triple
    circumcentres in combinations order."""
    pts = np.array([p.as_tuple() for p in points], dtype=float)
    rows = [pts[np.lexsort((pts[:, 1], pts[:, 0]))]]
    ii, jj = np.triu_indices(len(pts), 1)
    rows.append((pts[ii] + pts[jj]) / 2.0)
    scale = geometry_eps(points) * max(1.0, float(np.abs(pts).max())) * 2.0
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        bb, cc = pts[j] - pts[i], pts[k] - pts[i]
        cr = bb[0] * cc[1] - bb[1] * cc[0]
        if abs(cr) > scale:
            b2, c2 = bb[0] * bb[0] + bb[1] * bb[1], cc[0] * cc[0] + cc[1] * cc[1]
            ux = (cc[1] * b2 - bb[1] * c2) / (2.0 * cr)
            uy = (bb[0] * c2 - cc[0] * b2) / (2.0 * cr)
            rows.append((pts[i] + np.array([ux, uy]))[None, :])
    return pts, np.vstack(rows)


def _eager_objective(points, classes):
    pts, cand = _eager_rows(points)
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


def test_lazy_context_equals_eager_enumeration():
    # the query-local candidates against every row, enumerated up front
    rng = random.Random(404)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(rng.randint(3, 16))]
            for _ in range(8)] + list(_degenerate_sets())
    for points in sets:
        for _ in range(12):
            classes = _random_classes(rng, len(points), rng.randint(1, min(5, len(points))))
            _assert_eager_optimum(points, classes, ScsdContext(points).best_center(classes))


def _property_sets(rng):
    """Degenerate point sets: (name, points)."""
    for _ in range(4):
        w = rng.randint(3, 5)
        grid = [(x, y) for x in range(w) for y in range(w)]
        cells = rng.sample(grid, rng.randint(4, min(14, w * w)))
        yield "lattice", [Point2(float(x), float(y)) for x, y in cells]
    for _ in range(3):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ts = sorted(rng.sample(range(40), rng.randint(4, 10)))
        yield "collinear", [Point2(a + 0.25 * t, b - 0.5 * t) for t in ts]
    for _ in range(3):
        angles = rng.sample(range(24), rng.randint(4, 10))
        yield "cocircular", [Point2(0.5 + 0.3 * math.cos(math.pi * t / 12),
                                    0.5 + 0.3 * math.sin(math.pi * t / 12)) for t in angles]
    for _ in range(3):
        base = [Point2(rng.random(), rng.random()) for _ in range(rng.randint(3, 7))]
        gap = 1e-10 * bbox_diagonal(base)
        twins = [Point2(p.x + gap, p.y) for p in rng.sample(base, 2)]
        yield "near-duplicate", base + twins
    for _ in range(3):
        centres = [(0.0, 0.0), (1e3, 0.0), (0.0, 1e3)][:rng.randint(2, 3)]
        yield "far clusters", [Point2(cx + 0.01 * rng.random(), cy + 0.01 * rng.random())
                               for cx, cy in centres for _ in range(rng.randint(2, 4))]


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
    four = [[0, 1, 2, 3], [7, 8], [9, 10, 11], [12, 13]]  # shares a cached class
    ctx = ScsdContext(points)
    for classes in (two, four, two, [[4, 5, 6], [9, 10]]):
        assert ctx.best_center(classes) == ScsdContext(points).best_center(classes)


def test_context_row_counts():
    rng = random.Random(406)
    lattice = [Point2(float(x), float(y)) for x in range(4) for y in range(4)]
    for points in ([Point2(rng.random(), rng.random()) for _ in range(11)], lattice):
        n = len(points)
        ctx = ScsdContext(points)
        ctx.objective([[0, 1], [2, 3, 4]], False)
        ctx.objective([list(range(n))], False)
        assert len(ctx.cand) == n + n * (n - 1) // 2 and ctx.dist.shape == (n, n)
        # one row per point, per pair and per non-collinear triple: the
        # anchor set of coupled_two_disk
        triples = sum(1 for a, b, c in itertools.combinations(points, 3)
                      if (b.x - a.x) * (c.y - a.y) != (b.y - a.y) * (c.x - a.x))
        for c in (ScsdContext(points), ctx):
            assert len(c.objective([[0], [1, 2]], True)) == n + n * (n - 1) // 2 + triples


def test_class_min_cache_cap_is_a_pure_memo():
    rng = random.Random(407)
    points = [Point2(rng.random(), rng.random()) for _ in range(18)]
    ctx = ScsdContext(points)
    ctx.objective([[0], [1], [2]], True)  # all rows present from here on
    keys = set()
    while len(keys) < 4300:
        keys.add(tuple(sorted(rng.sample(range(1, 18), rng.randint(2, 9)))))
    keys = sorted(keys)
    for key in keys:
        ctx.objective([list(key), [0]], False)
    assert len(ctx._class_min) == 4096
    for key in keys[::43] + keys[-20:]:  # cached and uncached keys
        for classes in ([list(key), [0]], [list(key), [0, 17], [5]]):
            for every_row in (False, True):
                assert np.array_equal(ctx.objective(classes, every_row),
                                      ScsdContext(points).objective(classes, every_row))
            assert ctx.best_center(classes) == ScsdContext(points).best_center(classes)


def test_objective_values_equal_eager_rows():
    # every row, in order and bit for bit, including the circumcentre
    # block built per class; small n, a lattice, collinear and cocircular
    rng = random.Random(408)
    sets = [[Point2(rng.random(), rng.random()) for _ in range(n)] for n in (3, 4, 5, 9, 17)]
    for points in sets + list(_degenerate_sets()):
        for _ in range(4):
            classes = _random_classes(rng, len(points), rng.randint(1, min(4, len(points))))
            ctx = ScsdContext(points)
            ctx.best_center(classes)
            cand, f = _eager_objective(points, classes)
            assert np.array_equal(ctx.objective(classes, True), f)
            assert np.array_equal(ctx.cand, cand)


def test_small_queries_skip_the_circumcentre_rows():
    # best_center builds no rows and keeps no vectors, whatever its class
    # count; only every-row objective calls append the circumcentre rows
    rng = random.Random(409)
    points = [Point2(rng.random(), rng.random()) for _ in range(20)]
    ctx = ScsdContext(points)
    wide = [[0, 1, 2], [3], [4, 5]]
    for classes in (wide, [list(range(6, 20)), [0, 1, 2]], [[7, 8]], [[3], [4, 5]]):
        assert ctx.best_center(classes) == ScsdContext(points).best_center(classes)
    assert ctx._triples is None and not ctx._class_min and "cand" not in vars(ctx)
    ctx.objective(wide, True)
    for classes in ([list(range(6, 20)), [0, 1, 2]], [[7, 8]], [[3], [4, 5]]):
        assert np.array_equal(ctx.objective(classes, False),
                              ScsdContext(points).objective(classes, False))
    # only the every-row call evaluated circumcentre distances
    assert {key for key, every_row in ctx._class_min if every_row} == {(0, 1, 2), (3,), (4, 5)}


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


def test_class_min_doubles_bound_is_a_pure_memo():
    # at n = 128 a vector over every row holds 349632 doubles, so the
    # doubles bound binds after 47 vectors, long before the entry cap
    rng = random.Random(411)
    points = [Point2(rng.random(), rng.random()) for _ in range(128)]
    ctx = ScsdContext(points)
    queries = [[sorted(rng.sample(range(128), rng.randint(1, 4))) for _ in range(3)]
               for _ in range(20)]
    for classes in queries:
        ctx.objective(classes, True)
    held = sum(vec.size for vec in ctx._class_min.values())
    assert held == ctx._class_min_doubles <= scsd._CLASS_MIN_DOUBLES
    assert len(ctx._class_min) < scsd._CLASS_MIN_ENTRIES
    kept = [all((tuple(c), True) in ctx._class_min for c in q) for q in queries]
    assert kept[0] and not all(kept)  # some vectors past the bound were not kept
    fresh = ScsdContext(points)
    for classes in queries[:2] + queries[-2:] + [queries[kept.index(False)]]:
        assert np.array_equal(ctx.objective(classes, True), fresh.objective(classes, True))
        assert ctx.best_center(classes) == fresh.best_center(classes)


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
            s1, s2, r = coupled_two_disk(cs1, cs2)
            assert r == max(class_radius(cs1, s1), class_radius(cs2, s2), distance(s1, s2))


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
            full = coupled_two_disk(cs1, cs2)
            r = full[2]
            for bound in (r, math.nextafter(r, math.inf), math.nextafter(r, -math.inf),
                          r / 2.0, 2.0 * r + 1.0):
                assert coupled_two_disk(cs1, cs2, bound) == (None if r >= bound else full)


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
    """The best anchored pair over every anchor row of both sides, with no
    skip and no cap."""
    best = math.inf
    for csa, csb, swap in ((cs1, cs2, False), (cs2, cs1, True)):
        pts, classes = scsd._flatten(csa)
        ctx = ScsdContext(pts)
        ctx.objective(classes, True)
        for i in range(len(ctx.cand)):
            a = ctx.center(i)
            z = scsd._anchored_center(csb, a)[1]
            s1, s2 = (z, a) if swap else (a, z)
            best = min(best, max(distance(s1, s2), class_radius(cs1, s1), class_radius(cs2, s2)))
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
    # would skip it
    for seed in (102,):
        cs1, cs2 = _lattice_pair(seed)
        _, _, r = coupled_two_disk(cs1, cs2)
        pts, classes = scsd._flatten(cs1)
        assert (ScsdContext(pts).objective(classes, True) < r).sum() > 64, seed
        assert r <= _exhaustive_anchored(cs1, cs2), seed
        assert r <= _grid_coupled(cs1, cs2) + 1e-9, seed
    # only a bound past the incumbent by eps may skip an anchor: (0, 4)
    # mirrors (0, 0), whose pair is worth exactly its bound f_b / 2, so the
    # bound of (0, 4) ties the incumbent (0, 0) leaves, and (0, 4) is solved
    solved = []
    anchored = scsd._anchored_center
    monkeypatch.setattr(scsd, "_anchored_center",
                        lambda cs, a: solved.append(a.as_tuple()) or anchored(cs, a))
    coupled_two_disk(color_system([[Point2(-1, 0), Point2(-1, 4)], [Point2(1, 0), Point2(1, 4)]]),
                     color_system([[Point2(0.5, 2)]]))
    assert solved == [(0.0, 0.0), (0.0, 4.0)]
