import math
import random

import numpy as np
import pytest

from mbsn.cli import generate_instance
from mbsn.geom import Point2, bbox_diagonal, geometry_eps
from mbsn.graph import is_biconnected
from mbsn.rng import _CHUNK, _WITNESSES, build_2rng, length_schedule, threshold_subgraph

from conftest import chunk_boundary_instances, naive_lune_graph, random_points


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


def _far_clusters(rng: random.Random, n: int) -> list[Point2]:
    a = random_points(rng, n // 2, spread=0.01)
    b = [Point2(p.x + 1000.0, p.y - 500.0) for p in random_points(rng, n - n // 2, spread=0.01)]
    return a + b


def _degenerate_instances() -> dict[str, list[Point2]]:
    rng = random.Random(2026)
    base = random_points(rng, 20)
    diag = bbox_diagonal(base)
    return {
        "lattice-6x6": [Point2(i, j) for i in range(6) for j in range(6)],
        "collinear-30": [Point2(0.5 * i, 0.25 * i) for i in range(30)],
        "cocircular-16": [Point2(math.cos(2 * math.pi * i / 16), math.sin(2 * math.pi * i / 16))
                          for i in range(16)],
        "near-duplicate": base + [Point2(base[0].x + 1e-10 * diag, base[0].y)],
        "far-clusters": _far_clusters(rng, 24),
    }


@pytest.mark.parametrize("name", sorted(_degenerate_instances()))
def test_witness_filter_matches_naive_on_degenerate_inputs(name):
    pts = _degenerate_instances()[name]
    assert len(pts) > _WITNESSES + 1  # the witness pass can drop pairs
    g = build_2rng(pts)
    assert set(g.edges) == naive_lune_graph(pts, geometry_eps(pts))
    assert g.lengths == pytest.approx(
        [math.dist(pts[i].as_tuple(), pts[j].as_tuple()) for i, j in g.edges], rel=1e-15, abs=0)


def test_witness_filter_matches_naive_on_random_inputs():
    rng = random.Random(31)
    for trial in range(10):
        n = rng.randint(12, 60)
        dist = "uniform" if trial % 2 == 0 else "clusters"
        pts = generate_instance(n, rng.randrange(10**6), dist)
        g = build_2rng(pts)
        assert set(g.edges) == naive_lune_graph(pts, geometry_eps(pts)), (trial, n, dist)


def _direct_2rng(pts: list[Point2]) -> tuple[tuple, tuple]:
    """Edges and lengths by the direct lune count over one full hypot matrix."""
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    dist = np.hypot(x[:, None] - x, y[:, None] - y)
    eps = geometry_eps(pts)
    keep = np.zeros(dist.shape, dtype=bool)
    for i in range(len(pts)):
        thr = (dist[i] - eps)[:, None]  # the lune of (i, j) in row j
        keep[i] = ((dist[i] < thr) & (dist < thr)).sum(axis=1) < 2
    iu, ju = np.nonzero(np.triu(keep, 1))
    return tuple(zip(iu.tolist(), ju.tolist())), tuple(dist[iu, ju].tolist())


@pytest.mark.parametrize("name", sorted(chunk_boundary_instances()))
def test_2rng_across_row_blocks_equals_direct_count(name):
    pts = chunk_boundary_instances()[name]
    assert len(pts) > _CHUNK
    g = build_2rng(pts)
    edges, lengths = _direct_2rng(pts)
    assert g.edges == edges
    assert g.lengths == lengths
