import random

import pytest

from mbsn.closure1 import optimal_1block_closure
from mbsn.geom import Point2, distance
from mbsn.graph import geometric_graph, is_biconnected, is_connected
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph

from conftest import grid_min_spanning_radius, random_points


def _with_closure(g, points, clo):
    return geometric_graph(list(points) + list(clo.steiner), list(g.edges) + list(clo.edges))


def test_path_closure():
    pts = [Point2(0, 0), Point2(5, 1), Point2(10, 0)]
    g = geometric_graph(pts, [(0, 1), (1, 2)])
    clo = optimal_1block_closure(g, pts)
    assert clo.steiner == (Point2(5.0, 0.0),)
    assert clo.radius == pytest.approx(5.0)
    assert clo.edges == ((0, 3), (2, 3))
    assert is_biconnected(_with_closure(g, pts, clo))


def test_block_uses_shortest_edge_midpoint():
    pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    g = geometric_graph(pts, [(0, 1), (1, 2), (2, 3), (0, 3)])
    clo = optimal_1block_closure(g, pts)
    assert clo.radius == pytest.approx(0.5)
    assert len(clo.edges) == 2
    (u, s), (v, t) = clo.edges
    assert s == t == 4  # the Steiner point is vertex n
    assert distance(pts[u], pts[v]) == pytest.approx(1.0)
    assert clo.steiner == (Point2((pts[u].x + pts[v].x) / 2, (pts[u].y + pts[v].y) / 2),)


def test_disconnected_rejected():
    pts = [Point2(0, 0), Point2(1, 0), Point2(5, 0), Point2(6, 0)]
    g = geometric_graph(pts, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        optimal_1block_closure(g, pts)


def test_closure_always_biconnects():
    rng = random.Random(31)
    done = 0
    while done < 80:
        pts = random_points(rng, rng.randint(2, 14))
        r = build_2rng(pts)
        ts = sorted(set(r.lengths))
        t = ts[rng.randrange(len(ts))]
        g = threshold_subgraph(r, t)
        if not is_connected(g):
            continue
        clo = optimal_1block_closure(g, pts)
        assert is_biconnected(_with_closure(g, pts, clo))
        done += 1


def test_radius_monotone_across_thresholds():
    rng = random.Random(17)
    done = 0
    while done < 100:
        pts = random_points(rng, rng.randint(3, 14))
        r = build_2rng(pts)
        ts = length_schedule(r)
        pairs = [(a, b) for i, a in enumerate(ts) for b in ts[i + 1:]]
        if not pairs:
            continue
        t1, t2 = pairs[rng.randrange(len(pairs))]
        g1, g2 = threshold_subgraph(r, t1), threshold_subgraph(r, t2)
        if not (is_connected(g1) and is_connected(g2)):
            continue
        r1 = optimal_1block_closure(g1, pts).radius
        r2 = optimal_1block_closure(g2, pts).radius
        assert r1 >= r2 - 1e-12
        done += 1


def test_optimality_against_grid():
    # for a non-block graph the closure radius is the minimum of the
    # colour-spanning objective over the leaf-block interiors
    from mbsn.graph import block_cut_forest

    rng = random.Random(71)
    done = 0
    while done < 40:
        pts = random_points(rng, rng.randint(3, 10))
        r = build_2rng(pts)
        ts = length_schedule(r)
        g = threshold_subgraph(r, ts[rng.randrange(len(ts))])
        if not is_connected(g) or is_biconnected(g):
            continue
        clo = optimal_1block_closure(g, pts)
        bcf = block_cut_forest(g)
        classes = [[pts[v].as_tuple() for v in bcf.interiors[b]] for b in bcf.leaf_blocks]
        gmin, slack = grid_min_spanning_radius(classes, -0.2, 1.2, 160)
        assert clo.radius <= gmin + 1e-9
        assert clo.radius >= gmin - slack - 1e-9
        done += 1
