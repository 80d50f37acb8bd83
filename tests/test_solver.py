import math
import random

import pytest

from mbsn.geom import Point2, distance
from mbsn.graph import block_cut_forest, is_connected
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph
from mbsn.solver import mbsn0, mbsn1, mbsn2, solve, threshold_scan

from conftest import chunk_boundary_instances, random_points

SQUARE = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
TRI = [Point2(0, 0), Point2(10, 0), Point2(5, 1)]
DUMBBELL = [Point2(0, 0), Point2(0, 1), Point2(10, 0), Point2(10, 1)]


def test_mbsn0_square():
    net = mbsn0(SQUARE)
    net.validate()
    assert net.bottleneck == pytest.approx(1.0)
    assert set(net.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_mbsn0_collinear_triangle_forced():
    net = mbsn0([Point2(0, 0), Point2(1, 0), Point2(2, 0)])
    assert net.bottleneck == pytest.approx(2.0)


def test_mbsn0_two_points():
    net = mbsn0([Point2(0, 0), Point2(7, 0)])
    net.validate()
    assert net.bottleneck == pytest.approx(7.0)
    assert net.edges == ((0, 1),)


def test_mbsn1_worked_instance():
    net = mbsn1(TRI)
    net.validate()
    assert net.bottleneck == pytest.approx(math.sqrt(26), abs=1e-9)
    assert net.threshold == pytest.approx(math.sqrt(26), abs=1e-12)
    assert net.steiner[0].as_tuple() == pytest.approx((5.0, 0.0))


def test_mbsn1_square():
    net = mbsn1(SQUARE)
    net.validate()
    assert net.bottleneck == pytest.approx(1.0, abs=1e-9)


def test_mbsn1_two_points_triangle_forced():
    net = mbsn1([Point2(0, 0), Point2(10, 0)])
    net.validate()
    assert net.bottleneck == pytest.approx(10.0)
    s = net.steiner[0]
    assert max(distance(s, Point2(0, 0)), distance(s, Point2(10, 0))) <= 10.0 + 1e-9


def test_mbsn2_dumbbell():
    net = mbsn2(DUMBBELL)
    net.validate()
    assert net.bottleneck == pytest.approx(5.0, abs=1e-6)
    assert net.threshold == pytest.approx(1.0)
    centres = sorted(s.as_tuple() for s in net.steiner)
    assert centres[0] == pytest.approx((5.0, 0.0), abs=1e-6)
    assert centres[1] == pytest.approx((5.0, 1.0), abs=1e-6)


def test_mbsn2_two_points():
    net = mbsn2([Point2(0, 0), Point2(10, 0)])
    net.validate()
    assert net.threshold == 0.0
    assert 5.0 - 1e-9 <= net.bottleneck <= 5.0 + 1e-6
    assert len(net.steiner) == 2
    assert net.steiner[0] != net.steiner[1]


def test_mbsn2_three_points_beats_k1():
    net = mbsn2(TRI)
    net.validate()
    assert net.bottleneck <= math.sqrt(26) + 1e-9
    assert net.bottleneck == pytest.approx(5.0, abs=1e-6)


def test_mbsn2_collinear_five_matches_oracle():
    from mbsn.oracle import oracle_k2

    pts = [Point2(float(i), 0) for i in range(5)]
    net = mbsn2(pts)
    net.validate()
    val, _, _, err = oracle_k2(pts, 1e-2)
    assert val - err - 1e-12 <= net.bottleneck <= val + 1e-9


def test_solve_dispatch_and_input_checks():
    assert solve(SQUARE, 0).k == 0
    with pytest.raises(ValueError):
        solve(SQUARE, 3)
    with pytest.raises(ValueError):
        mbsn0([Point2(0, 0)])
    with pytest.raises(ValueError):
        mbsn1([Point2(0, 0), Point2(0, 0)])


def test_sandwich_and_invariants_random():
    rng = random.Random(8)
    for _ in range(25):
        pts = random_points(rng, rng.randint(2, 10))
        n0, n1, n2 = mbsn0(pts), mbsn1(pts), mbsn2(pts)
        for net in (n0, n1, n2):
            net.validate()
            assert net.bottleneck == pytest.approx(net.recomputed_bottleneck(), abs=1e-12)
        assert n2.bottleneck <= n1.bottleneck + 1e-9
        assert n1.bottleneck <= n0.bottleneck + 1e-9
        # the k = 1 network is its threshold graph plus the Steiner star
        g_t = set(threshold_subgraph(build_2rng(pts), n1.threshold).edges)
        assert g_t <= set(n1.edges)
        assert all(len(pts) in e for e in set(n1.edges) - g_t)


def test_binary_search_equals_exhaustive_scan():
    rng = random.Random(64)
    for _ in range(20):
        pts = random_points(rng, rng.randint(2, 8))
        for k, net in ((0, mbsn0(pts)), (1, mbsn1(pts)), (2, mbsn2(pts))):
            objs = [e.objective for e in threshold_scan(pts, k) if e.feasible]
            assert min(objs) == pytest.approx(net.bottleneck, abs=1e-7)


def test_feasibility_monotone_in_threshold():
    rng = random.Random(90)
    for _ in range(20):
        pts = random_points(rng, rng.randint(3, 9))
        for k in (1, 2):
            evals = threshold_scan(pts, k)
            seen_feasible = False
            for e in evals:
                if e.feasible:
                    seen_feasible = True
                else:
                    assert not seen_feasible, \
                        "feasibility must be monotone in the threshold"


@pytest.mark.parametrize("name", sorted(chunk_boundary_instances()))
def test_k0_prefix_probes_match_threshold_graphs(name):
    """Every k = 0 verdict equals one block and connectivity of G_t, and the
    answer is exactly the threshold graph at t*."""
    pts = chunk_boundary_instances()[name]
    r = build_2rng(pts)
    verdicts = [e.feasible for e in threshold_scan(pts, 0)]
    expect = []
    for t in length_schedule(r):
        g = threshold_subgraph(r, t)
        expect.append(is_connected(g) and len(block_cut_forest(g).blocks) == 1)
    assert verdicts == expect
    assert expect[-1]  # the whole 2-RNG is 2-connected
    net = mbsn0(pts)
    assert net.threshold == length_schedule(r)[expect.index(True)]
    assert net.edges == threshold_subgraph(r, net.threshold).edges
