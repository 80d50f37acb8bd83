"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Suite instances are deterministic: suite 1 has 300 instances with
n in [4, 40], suite 2 has 200 with n in [4, 12], suite 3 has 100 with
n in [4, 8], alternating uniform and clustered layouts.
"""

import math
import random
import time

import pytest

from mbsn.cli import cmd_bench, generate_instance
from mbsn.closure1 import optimal_1block_closure
from mbsn.closure2 import (classify, enumerate_partitions, locate_case1, locate_case2,
                           locate_case3, optimal_2block_closure, partition_bounds)
from mbsn.geom import Point2, distance
from mbsn.graph import b_count, block_cut_forest, is_biconnected, is_connected, make_graph
from mbsn.oracle import oracle_k1, oracle_k2, oracle_mbsn0
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph
from mbsn.scsd import ScsdContext, color_system, smallest_color_spanning_disk
from mbsn import solver
from mbsn.solver import mbsn0, mbsn1, mbsn2, threshold_scan

from conftest import (grid_min_spanning_radius, naive_b_count, naive_blocks,
                      naive_cut_vertices, random_graph, random_points)


def _suite(count, n_lo, n_hi, seed0):
    out = []
    for i in range(count):
        n = n_lo + i % (n_hi - n_lo + 1)
        dist = "uniform" if i % 2 == 0 else "clusters"
        out.append(generate_instance(n, seed0 + i, dist))
    return out


SUITE1 = _suite(300, 4, 40, 10_000)
SUITE2 = _suite(200, 4, 12, 20_000)
SUITE3 = _suite(100, 4, 8, 30_000)

_sandwich_cache: dict[int, list] = {}


def _solved(suite_id, instances, ks):
    if suite_id not in _sandwich_cache:
        recs = []
        for pts in instances:
            rec = {}
            if 0 in ks:
                rec[0] = mbsn0(pts)
            if 1 in ks:
                rec[1] = mbsn1(pts)
            if 2 in ks:
                rec[2] = mbsn2(pts)
            recs.append((pts, rec))
        _sandwich_cache[suite_id] = recs
    return _sandwich_cache[suite_id]


def test_criterion_1_k0_exactness():
    t0 = time.perf_counter()
    for pts in SUITE1:
        net = mbsn0(pts)
        assert abs(net.bottleneck - oracle_mbsn0(pts)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    print(f"\n[PASS] criterion 1: mbsn0 == oracle on {len(SUITE1)} instances "
          f"(diff <= 1e-12) in {elapsed:.1f}s")


def test_criterion_2_k1_bracketing():
    for pts, rec in _solved(2, SUITE2, (0, 1, 2)):
        net = rec[1]
        net.validate()
        assert len(net.steiner) == 1
        val, _, err = oracle_k1(pts, 1e-3)
        assert err <= 1e-3
        assert val - err - 1e-12 <= net.bottleneck <= val + 1e-9, \
            (net.bottleneck, val, err)
    print(f"\n[PASS] criterion 2: mbsn1 within [oracle-err, oracle+1e-9] on "
          f"{len(SUITE2)} instances at target 1e-3")


def test_criterion_3_k2_bracketing():
    for pts, rec in _solved(3, SUITE3, (0, 1, 2)):
        net = rec[2]
        net.validate()
        assert len(net.steiner) == 2
        assert net.steiner[0].as_tuple() != net.steiner[1].as_tuple()
        val, _, _, err = oracle_k2(pts, 1e-2)
        assert err <= 1e-2
        assert val - err - 1e-12 <= net.bottleneck <= val + 1e-9, \
            (net.bottleneck, val, err)
    print(f"\n[PASS] criterion 3: mbsn2 within [oracle-err, oracle+1e-9] on "
          f"{len(SUITE3)} instances at target 1e-2")


def test_criterion_4_worked_instances():
    tri = [Point2(0, 0), Point2(10, 0), Point2(5, 1)]
    net = mbsn1(tri)
    assert net.bottleneck == pytest.approx(math.sqrt(26), abs=1e-9)
    assert net.threshold == pytest.approx(math.sqrt(26), abs=1e-12)
    assert net.steiner[0].as_tuple() == pytest.approx((5.0, 0.0), abs=1e-9)
    # trace of the winning threshold: the 1-block closure of the path has
    # radius 5 at the Steiner point
    r2rng = build_2rng(tri)
    g_t = threshold_subgraph(r2rng, net.threshold)
    clo = optimal_1block_closure(g_t, tri)
    assert clo.radius == pytest.approx(5.0, abs=1e-12)
    assert clo.steiner[0].as_tuple() == pytest.approx((5.0, 0.0), abs=1e-12)

    dumbbell = [Point2(0, 0), Point2(0, 1), Point2(10, 0), Point2(10, 1)]
    net2 = mbsn2(dumbbell)
    assert net2.bottleneck == pytest.approx(5.0, abs=1e-6)
    assert net2.threshold == pytest.approx(1.0, abs=1e-12)

    two = mbsn2([Point2(0, 0), Point2(10, 0)])
    assert two.threshold == 0.0
    assert 5.0 - 1e-12 <= two.bottleneck <= 5.0 + 1e-6

    square = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    assert mbsn1(square).bottleneck == pytest.approx(1.0, abs=1e-9)
    print("\n[PASS] criterion 4: worked instances (triangle k=1, dumbbell k=2, "
          "2-point k=2, unit square k=1)")


def test_criterion_5_sandwich():
    checked = 0
    for suite_id, suite in ((1, SUITE1), (2, SUITE2), (3, SUITE3)):
        for pts, rec in _solved(suite_id, suite, (0, 1, 2)):
            b0, b1, b2 = rec[0].bottleneck, rec[1].bottleneck, rec[2].bottleneck
            assert b2 <= b1 + 1e-9, (suite_id, b1, b2)
            assert b1 <= b0 + 1e-9, (suite_id, b0, b1)
            checked += 1
    print(f"\n[PASS] criterion 5: mbsn2 <= mbsn1 <= mbsn0 (within 1e-9) on "
          f"{checked} instances")


def test_criterion_6_structural_monotonicity():
    rng = random.Random(606)
    # leaf/isolated counter monotone under edge subgraphs
    for _ in range(100):
        n = rng.randint(2, 20)
        g2 = random_graph(rng, n, rng.uniform(0.1, 0.5))
        g1 = make_graph(n, [e for e in g2.edges if rng.random() < 0.7])
        assert b_count(g1) >= b_count(g2)
    # closure radii monotone across threshold pairs
    done = 0
    while done < 100:
        pts = random_points(rng, rng.randint(3, 12))
        r = build_2rng(pts)
        ts = length_schedule(r)
        if len(ts) < 2:
            continue
        i = rng.randrange(len(ts) - 1)
        j = rng.randrange(i + 1, len(ts))
        g1, g2 = threshold_subgraph(r, ts[i]), threshold_subgraph(r, ts[j])
        if is_connected(g1) and is_connected(g2):
            assert optimal_1block_closure(g1, pts).radius >= \
                optimal_1block_closure(g2, pts).radius - 1e-9
        done += 1
    done = 0
    while done < 100:
        pts = random_points(rng, rng.randint(2, 10))
        r = build_2rng(pts)
        ts = (0.0,) + length_schedule(r)
        i = rng.randrange(len(ts) - 1)
        j = rng.randrange(i + 1, len(ts))
        g1, g2 = threshold_subgraph(r, ts[i]), threshold_subgraph(r, ts[j])
        if b_count(g1) > 10 or b_count(g2) > 10:
            continue
        assert optimal_2block_closure(g1, pts).radius >= \
            optimal_2block_closure(g2, pts).radius - 1e-9
        done += 1
    # block cut forest equals naive recomputation
    for _ in range(200):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.uniform(0.03, 0.3))
        bcf = block_cut_forest(g)
        assert {frozenset(b) for b in bcf.blocks} == naive_blocks(g)
        assert set(bcf.cut_vertices) == naive_cut_vertices(g)
        assert b_count(g) == naive_b_count(g)
    # 2-RNG biconnectivity
    for _ in range(100):
        pts = random_points(rng, rng.randint(2, 40))
        assert is_biconnected(build_2rng(pts))
    print("\n[PASS] criterion 6: b-count and closure-radius monotonicity, "
          "BCF vs naive (200), 2-RNG biconnectivity (100)")


def test_criterion_7_binary_search_fidelity():
    rng = random.Random(707)
    for trial in range(100):
        pts = random_points(rng, rng.randint(2, 8))
        for k, net in ((1, mbsn1(pts)), (2, mbsn2(pts))):
            objs = [e.objective for e in threshold_scan(pts, k) if e.feasible]
            assert min(objs) == pytest.approx(net.bottleneck, abs=1e-7), (trial, k)
    print("\n[PASS] criterion 7: binary search equals exhaustive threshold scan "
          "for k=1 and k=2 on 100 instances")


def test_kept_decision_payloads_equal_repriced_ones():
    # a k = 2 decision (cutoff t+, enough = t) at or below its threshold keeps
    # its payload only when its closure never stopped at enough; the search
    # then does not price it again, so it must be the payload of the exact
    # evaluation with the same cutoff.  Most decisions stop, a few do not.
    kept = downs = 0
    for pts in SUITE1 + SUITE2:
        _, lengths, evaluate = solver._pipeline(pts, 2)
        decided = []

        def recording(t, cutoff, enough=-math.inf):
            ev = evaluate(t, cutoff, enough)
            if enough == t:
                decided.append((t, ev))
            return ev

        solver._binary_search(lengths, recording)
        for t, ev in decided:
            if ev[0] and ev[1] <= t:
                downs += 1
                if ev[2] is not None:
                    assert evaluate(t, math.nextafter(t, math.inf)) == ev, (len(pts), t)
                    kept += 1
    assert downs > 500 and kept > 0, (downs, kept)


def test_partition_lower_bound_never_exceeds_the_closure_radius():
    # every partition of G_t at a quarter and at half the k = 2 schedule of
    # each suite 1-2 instance: the bound the closure skips partitions by is
    # at most the partition's radius (up to rounding: it is often exact)
    locate = {"case1": locate_case1, "case2": locate_case2, "case3": locate_case3}
    checked = positive = 0
    for pts in SUITE1 + SUITE2:
        r = build_2rng(pts)
        lengths = length_schedule(r, include_zero=True)
        ctx = ScsdContext(pts)
        for t in (lengths[len(lengths) // 4], lengths[len(lengths) // 2]):
            g = threshold_subgraph(r, t)
            bcf = block_cut_forest(g)
            if b_count(g) > 10 or len(bcf.blocks) == 1:
                continue
            lower = partition_bounds(ctx, bcf)
            for part in enumerate_partitions(bcf):
                topo = classify(g, part)
                radius = locate[topo.case_tag](g, pts, topo, ctx).radius
                assert lower(part) <= radius + 1e-12, (len(pts), t, part)
                checked += 1
                positive += lower(part) > 0.0
    assert checked > 1000 and positive > checked // 2


def test_criterion_8_scsd_correctness():
    rng = random.Random(808)
    for trial in range(200):
        q = rng.randint(1, 5)
        classes = [[(rng.random(), rng.random())
                    for _ in range(rng.randint(1, max(1, 30 // q)))]
                   for _ in range(q)]
        cs = color_system([[Point2(x, y) for x, y in c] for c in classes])
        res = smallest_color_spanning_disk(cs)
        gmin, slack = grid_min_spanning_radius(classes, -0.1, 1.1, 140)
        assert res.disk.radius <= gmin + 1e-9, trial
        assert res.disk.radius >= gmin - slack - 1e-9, trial
        for p in res.determinators:
            assert abs(distance(res.disk.center, p) - res.disk.radius) <= 1e-9
    print("\n[PASS] criterion 8: SCSD radius grid-certified and determinators "
          "on the boundary (1e-9) on 200 colour systems")


def test_criterion_9_complexity_report(tmp_path):
    # not gated: small bench curves with fitted exponents; full curves via
    #   mbsn bench --sizes ... --k ... --csv ...
    import argparse

    lines = []
    for k, sizes in ((0, "64,128,256,512"), (1, "8,16,32,64"), (2, "6,12,24")):
        csv = tmp_path / f"bench_k{k}.csv"
        args = argparse.Namespace(sizes=sizes, repeats=1, k=k, seed=0, csv=str(csv))
        assert cmd_bench(args) == 0
        rows = csv.read_text().strip().splitlines()[1:]
        ns = [int(r.split(",")[0]) for r in rows]
        ms = [float(r.split(",")[1]) for r in rows]
        lx = [math.log(n) for n in ns]
        ly = [math.log(max(m, 1e-9)) for m in ms]
        mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
        exp = sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / \
            sum((a - mx) ** 2 for a in lx)
        lines.append(f"k={k}: sizes {ns} -> fitted time ~ n^{exp:.2f}")
    print("\n[PASS] criterion 9 (report only): " + "; ".join(lines))
