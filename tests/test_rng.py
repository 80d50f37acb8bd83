import math
import random

import pytest

from mbsn.geom import Point2, geometry_eps
from mbsn.graph import is_biconnected
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph

from conftest import naive_lune_graph, random_points


def test_three_points_complete():
    g = build_2rng([Point2(0, 0), Point2(3, 0), Point2(1, 2)])
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}


def test_collinear_three_complete():
    # the long edge's lune contains only one point, so it stays
    g = build_2rng([Point2(0, 0), Point2(1, 0), Point2(2, 0)])
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}


def test_unit_square_drops_diagonals():
    pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    g = build_2rng(pts)
    assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        build_2rng([Point2(0, 0), Point2(0, 0), Point2(1, 1)])


def test_matches_naive_lune_count():
    rng = random.Random(12)
    for trial in range(60):
        pts = random_points(rng, rng.randint(2, 25))
        g = build_2rng(pts)
        assert set(g.edges) == naive_lune_graph(pts, geometry_eps(pts)), trial


def test_2rng_biconnected_and_sparse():
    rng = random.Random(77)
    worst_ratio = 0.0
    for _ in range(100):
        n = rng.randint(2, 40)
        pts = random_points(rng, n)
        g = build_2rng(pts)
        assert is_biconnected(g)
        worst_ratio = max(worst_ratio, len(g.edges) / n)
    # edge count is recorded, not hard-gated
    print(f"\n2-RNG max edges/n over 100 instances: {worst_ratio:.2f}")


def test_threshold_subgraph_examples():
    pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    g = build_2rng(pts)
    assert threshold_subgraph(g, 0.5).edges == ()
    assert threshold_subgraph(g, 0.5).vertex_count == 4
    assert set(threshold_subgraph(g, 1.0).edges) == set(g.edges)

    tri = build_2rng([Point2(0, 0), Point2(10, 0), Point2(5, 1)])
    path = threshold_subgraph(tri, math.sqrt(26))
    assert set(path.edges) == {(0, 2), (1, 2)}


def test_threshold_monotone():
    rng = random.Random(4)
    for _ in range(50):
        pts = random_points(rng, rng.randint(3, 20))
        g = build_2rng(pts)
        ts = sorted(set(g.lengths))
        for t1, t2 in zip(ts, ts[1:]):
            e1 = set(threshold_subgraph(g, t1).edges)
            e2 = set(threshold_subgraph(g, t2).edges)
            assert e1 <= e2


def test_length_schedule():
    pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    assert length_schedule(build_2rng(pts)) == (1.0,)  # four equal sides, one value

    two = build_2rng([Point2(0, 0), Point2(10, 0)])
    assert length_schedule(two) == (10.0,)
    assert length_schedule(two, include_zero=True) == (0.0, 10.0)

    side = 2.0
    eq = build_2rng([Point2(0, 0), Point2(side, 0), Point2(side / 2, side * math.sqrt(3) / 2)])
    assert length_schedule(eq) == pytest.approx((2.0,))

    rng = random.Random(81)
    for _ in range(20):
        g = build_2rng(random_points(rng, rng.randint(2, 15)))
        sched = length_schedule(g)
        assert isinstance(sched, tuple)
        assert all(a < b for a, b in zip(sched, sched[1:]))
        assert set(sched) == set(g.lengths)
        assert length_schedule(g, include_zero=True) == (0.0, *sched)
