import functools
import gc
import itertools
import math
import random
import weakref

import numpy as np
import pytest

from mbsn import closure2
from mbsn.cli import generate_instance
from mbsn.closure2 import (classify, enumerate_partitions, locate_case1,
                           locate_case2, locate_case3, optimal_2block_closure)
from mbsn.geom import Point2, distance
from mbsn.graph import (block_cut_forest, geometric_graph, is_biconnected,
                        is_connected, make_graph)
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph
from mbsn.scsd import ScsdContext
from mbsn.solver import solve

from conftest import property_sets, random_points

DUMBBELL = [Point2(0, 0), Point2(0, 1), Point2(10, 0), Point2(10, 1)]


def _embedded_graph(g, points, emb):
    return geometric_graph(list(points) + list(emb.steiner), set(g.edges) | set(emb.edges))


def test_partition_counts():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])  # path: 2 leaf blocks
    bcf = block_cut_forest(g)
    assert len(enumerate_partitions(bcf)) == 1

    g3 = make_graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (4, 6)])
    bcf3 = block_cut_forest(g3)
    if len(bcf3.leaf_blocks) == 3:
        assert len(enumerate_partitions(bcf3)) == 3

    edgeless = make_graph(2, [])
    assert enumerate_partitions(block_cut_forest(edgeless)) == \
        enumerate_partitions(block_cut_forest(edgeless))
    assert len(enumerate_partitions(block_cut_forest(edgeless))) == 1


def test_classify_dumbbell_case1():
    g = geometric_graph(DUMBBELL, [(0, 1), (2, 3)])
    bcf = block_cut_forest(g)
    parts = enumerate_partitions(bcf)
    assert len(parts) == 1
    topo = classify(g, parts[0])
    assert topo.case_tag == "case1"
    assert len(topo.isolated_multis) == 2
    assert topo.isolated_vertices == ()
    assert is_biconnected(topo.base_topology)


def test_classify_path_case2():
    pts = [Point2(float(i), 0) for i in range(5)]
    g = geometric_graph(pts, [(0, 1), (1, 2), (2, 3), (3, 4)])
    bcf = block_cut_forest(g)
    parts = enumerate_partitions(bcf)
    topo = classify(g, parts[0])
    assert topo.case_tag == "case2"
    # the base topology of a 5-vertex path is a path of 6 single-edge blocks
    assert len(topo.block_path.blocks) == 6
    assert topo.block_path.single_edge_first and topo.block_path.single_edge_last
    cells = topo.block_path.cells
    assert sum(len(c) for c in cells) == 7  # partitions all abstract vertices


def test_classify_covered_component_case3():
    # path component with both leaf blocks on one side, plus a triangle
    pts = [Point2(0, 0), Point2(1, 0), Point2(2, 0),
           Point2(10, 0), Point2(11, 0), Point2(10.5, 1)]
    g = geometric_graph(pts, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    bcf = block_cut_forest(g)
    from mbsn.closure2 import Partition
    leafs = bcf.leaf_blocks
    topo = classify(g, Partition(tuple(leafs), ()))
    assert topo.case_tag == "case3"
    assert topo.covered_by_s1 == ((0, 1, 2),)
    assert topo.covered_by_s2 == ()
    emb = locate_case3(g, pts, topo)
    assert is_biconnected(_embedded_graph(g, pts, emb))
    # the extra edge to the covered component comes from the other point
    assert any(e in emb.edges for e in ((0, 7), (1, 7), (2, 7)))  # s2 is vertex 7


def test_case1_with_isolated_vertex():
    # connected path plus a far isolated vertex: the vertex is a colour of
    # both disks, so each centre is the midpoint of its own diametric pair
    pts = [Point2(0, 0), Point2(5, 1), Point2(10, 0), Point2(5, 4)]
    g = geometric_graph(pts, [(0, 1), (1, 2)])
    bcf = block_cut_forest(g)
    parts = enumerate_partitions(bcf)
    found = None
    for part in parts:
        topo = classify(g, part)
        if topo.case_tag == "case1" and len(part.side1) == 1 and len(part.side2) == 1:
            found = locate_case1(g, pts, topo)
    assert found is not None
    centres = sorted(s.as_tuple() for s in found.steiner)
    assert centres[0] == pytest.approx((2.5, 2.0))   # midpoint of (0,0),(5,4)
    assert centres[1] == pytest.approx((7.5, 2.0))   # midpoint of (10,0),(5,4)
    assert found.radius == pytest.approx(math.hypot(5, 4) / 2)
    assert is_biconnected(_embedded_graph(g, pts, found))


def test_case3_both_components_covered():
    # two path components, each fully assigned to one Steiner point: the
    # cross edges restore 2-connectivity
    pts = [Point2(0, 0), Point2(1, 0), Point2(2, 0),
           Point2(0, 5), Point2(1, 5), Point2(2, 5)]
    g = geometric_graph(pts, [(0, 1), (1, 2), (3, 4), (4, 5)])
    bcf = block_cut_forest(g)
    from mbsn.closure2 import Partition
    comp_a = [b for b in bcf.leaf_blocks if bcf.blocks[b][0] < 3]
    comp_b = [b for b in bcf.leaf_blocks if bcf.blocks[b][0] >= 3]
    topo = classify(g, Partition(tuple(comp_a), tuple(comp_b)))
    assert topo.case_tag == "case3"
    assert len(topo.covered_by_s1) == 1 and len(topo.covered_by_s2) == 1
    emb = locate_case3(g, pts, topo)
    assert is_biconnected(_embedded_graph(g, pts, emb))


def test_dumbbell_case1_trace():
    g = geometric_graph(DUMBBELL, [(0, 1), (2, 3)])
    emb = optimal_2block_closure(g, DUMBBELL)
    assert emb.case_tag == "case1"
    assert emb.radius == pytest.approx(5.0)
    centres = sorted(s.as_tuple() for s in emb.steiner)
    assert centres[0] == pytest.approx((5.0, 0.0))
    assert centres[1] == pytest.approx((5.0, 1.0))
    # each Steiner point (vertices 4 and 5) keeps its own pair of distinct block endpoints
    for blk in ((0, 1), (2, 3)):
        p1 = {u for u, s in emb.edges if s == 4 and u in blk}
        p2 = {u for u, s in emb.edges if s == 5 and u in blk}
        assert p1 and p2 and not (p1 & p2)
    assert is_biconnected(_embedded_graph(g, DUMBBELL, emb))


def test_two_isolated_vertices_threshold_zero():
    pts = [Point2(0, 0), Point2(10, 0)]
    g = make_graph(2, [])
    emb = optimal_2block_closure(g, pts)
    assert emb.radius == pytest.approx(5.0, abs=1e-6)
    s1, s2 = emb.steiner
    assert s1 != s2  # separated after coincident optimum
    assert distance(s1, s2) <= 1e-6
    assert is_biconnected(_embedded_graph(g, pts, emb))


def test_biconnected_block_trisection():
    pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
    g = geometric_graph(pts, [(0, 1), (1, 2), (2, 3), (0, 3)])
    emb = optimal_2block_closure(g, pts)
    assert emb.case_tag == "block"
    # trisection of the shortest edge: the longest new edge is a third of it
    assert emb.radius == pytest.approx(1.0 / 3.0)
    assert (4, 5) in emb.edges  # the Steiner-Steiner edge
    assert is_biconnected(_embedded_graph(g, pts, emb))


def test_case2_subcase22_three_leg_balance():
    # two leaf blocks joined by a cut vertex; the adjacent-Steiner topology
    # must never beat the honest objective of its own embedding
    pts = [Point2(0, 0), Point2(4, 0), Point2(8, 0)]
    g = geometric_graph(pts, [(0, 1), (1, 2)])
    bcf = block_cut_forest(g)
    topo = classify(g, enumerate_partitions(bcf)[0])
    emb = locate_case2(g, pts, topo)
    assert is_biconnected(_embedded_graph(g, pts, emb))
    assert emb.radius <= 8.0 / 3.0 + 1e-9


def test_case2_monotone_split_radii():
    # radii along the split-index scan move monotonically with the index
    # (the H classes are nested), checked on seeded path instances
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 9)
        pts = random_points(rng, n)
        r = build_2rng(pts)
        ts = length_schedule(r)
        g = threshold_subgraph(r, ts[rng.randrange(len(ts))])
        if not is_connected(g) or is_biconnected(g):
            continue
        bcf = block_cut_forest(g)
        parts = enumerate_partitions(bcf)
        topo = None
        for p in parts:
            t = classify(g, p)
            if t.case_tag == "case2":
                topo = t
                break
        if topo is None:
            continue
        bp = topo.block_path
        ctx = ScsdContext(pts)
        nv = g.vertex_count
        cells_x = [tuple(v for v in cell if v < nv) for cell in bp.cells]
        side1 = [list(c) for c in topo.side1_classes]
        p_len = len(bp.blocks)
        r1s = []
        for a in range(1, p_len + 1):
            h1 = sorted(v for cell in cells_x[a - 1:] for v in cell)
            if not h1 or (a == 1 and bp.single_edge_first) or \
               (a == p_len and bp.single_edge_last) or \
               (len(side1) == 1 and a == 2):
                continue
            r1s.append(ctx.best_center(side1 + [h1])[0])
        for x, y in zip(r1s, r1s[1:]):
            assert y >= x - 1e-12  # shrinking H-class never shrinks the disk
        checked += 1


def test_embedded_closures_biconnected_random():
    rng = random.Random(99)
    done = 0
    while done < 120:
        pts = random_points(rng, rng.randint(2, 12))
        r = build_2rng(pts)
        ts = (0.0,) + length_schedule(r)
        g = threshold_subgraph(r, ts[rng.randrange(len(ts))])
        from mbsn.graph import b_count
        if b_count(g) > 10:
            continue
        emb = optimal_2block_closure(g, pts)
        eg = _embedded_graph(g, pts, emb)
        assert is_biconnected(eg), (done, emb.case_tag)
        # recorded radius equals the longest Steiner edge
        spt = {len(pts): emb.steiner[0], len(pts) + 1: emb.steiner[1]}
        worst = 0.0
        for u, v in eg.edges:
            if u in spt or v in spt:
                pu = spt.get(u, None) or pts[u]
                pv = spt.get(v, None) or (pts[v] if v < len(pts) else spt[v])
                worst = max(worst, distance(pu, pv))
        assert emb.radius == pytest.approx(worst, abs=1e-9)
        done += 1


def test_radius_monotone_across_thresholds():
    rng = random.Random(13)
    done = 0
    while done < 100:
        pts = random_points(rng, rng.randint(2, 10))
        r = build_2rng(pts)
        ts = (0.0,) + length_schedule(r)
        i = rng.randrange(len(ts) - 1)
        j = rng.randrange(i + 1, len(ts))
        g1, g2 = threshold_subgraph(r, ts[i]), threshold_subgraph(r, ts[j])
        from mbsn.graph import b_count
        if b_count(g1) > 10 or b_count(g2) > 10:
            continue
        r1 = optimal_2block_closure(g1, pts).radius
        r2 = optimal_2block_closure(g2, pts).radius
        assert r1 >= r2 - 1e-9
        done += 1


def test_closure_beats_every_enumerated_candidate():
    rng = random.Random(44)
    done = 0
    while done < 30:
        pts = random_points(rng, rng.randint(3, 9))
        r = build_2rng(pts)
        ts = length_schedule(r)
        g = threshold_subgraph(r, ts[rng.randrange(len(ts))])
        from mbsn.graph import b_count
        if b_count(g) > 10 or is_biconnected(g):
            continue
        best = optimal_2block_closure(g, pts)
        bcf = block_cut_forest(g)
        ctx = ScsdContext(pts)
        for part in enumerate_partitions(bcf):
            topo = classify(g, part)
            emb = {"case1": locate_case1, "case2": locate_case2,
                   "case3": locate_case3}[topo.case_tag](g, pts, topo, ctx)
            assert best.radius <= emb.radius + 1e-9
        done += 1


def test_closure_releases_its_context_without_the_cycle_collector():
    # the pin search must not leave a reference cycle that keeps the shared
    # context (and its distance matrix) alive until the next collection
    g = geometric_graph(DUMBBELL, [(0, 1), (2, 3)])
    ctx = ScsdContext(DUMBBELL)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        optimal_2block_closure(g, DUMBBELL, ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def _classes(base1, base2, singles, zsets):
    shared = tuple((v,) for v in singles)
    return (tuple(map(tuple, base1)) + shared, tuple(map(tuple, base2)) + shared,
            [tuple(sorted(z)) for z in zsets])


def _enumerated_radius(ctx, base1, base2, singles, zsets):
    """Unpruned witness enumeration: the minimum over y in Z_1 x ... x Z_m
    of max(r(base1 + {y_j}), r(base2 + Z_j - {y_j}))."""
    b1, b2, zs = _classes(base1, base2, singles, zsets)
    best = math.inf
    for ys in itertools.product(*zs):
        r1 = ctx.best_center(b1 + tuple((y,) for y in ys))[0]
        r2 = ctx.best_center(b2 + tuple(tuple(v for v in z if v != y)
                                        for z, y in zip(zs, ys)))[0]
        best = min(best, max(r1, r2))
    return best


def _greedy_pair(ctx, base1, base2, singles, zsets):
    """s1 placed first with every block whole; s2 gets the rest of each."""
    b1, b2, zs = _classes(base1, base2, singles, zsets)
    r1, c1, picks1 = ctx.best_center(b1 + tuple(zs))
    ys = picks1[len(b1):]
    r2, c2, picks2 = ctx.best_center(b2 + tuple(tuple(v for v in z if v != y)
                                                 for z, y in zip(zs, ys)))
    return max(r1, r2), c1, c2, picks1, picks2


def _check_pair(ctx, base1, base2, singles, zsets) -> bool:
    """Check _locate_pair against the enumeration and the tie rule; True
    when the greedy pair is not optimal."""
    got = closure2._locate_pair(ctx, base1, base2, singles, zsets)
    r, c1, c2, picks1, picks2 = got
    assert r == _enumerated_radius(ctx, base1, base2, singles, zsets)
    for c, picks in ((c1, picks1), (c2, picks2)):
        assert max(distance(c, ctx.points[v]) for v in picks) <= r + 1e-12
    off1, off2 = len(base1) + len(singles), len(base2) + len(singles)
    for j, z in enumerate(zsets):
        y1, y2 = picks1[off1 + j], picks2[off2 + j]
        assert y1 in z and y2 in z and y1 != y2
    greedy = _greedy_pair(ctx, base1, base2, singles, zsets)
    if greedy[0] == r:
        assert got == greedy  # tie rule: the first optimal leaf is the greedy one
    return greedy[0] > r


def _check_bounded(ctx, args, bound) -> bool:
    """With ``bound``, the pair search returns None exactly when the
    unbounded radius is at or above it, and otherwise the unbounded call's
    answer; True when it returns None."""
    full = closure2._locate_pair(ctx, *args)
    assert closure2._locate_pair(ctx, *args, bound) == (None if full[0] >= bound else full), \
        (args, bound)
    return full[0] >= bound


def test_pair_search_matches_witness_enumeration_on_solves(monkeypatch):
    # every recorded call is replayed with no stop: with no bound, against
    # the enumeration and the tie rule; with the bound its solve passed.
    # With its stop too, it returns that answer or a leaf at most the stop
    calls = []
    original = closure2._locate_pair

    def recorded(ctx, *args):
        calls.append((ctx, args))
        return original(ctx, *args)

    monkeypatch.setattr(closure2, "_locate_pair", recorded)
    for seed in range(1000, 1005):  # 1004 makes the one call that its bound cuts
        solve(generate_instance(28, seed, "clusters"), 2)
    monkeypatch.undo()
    assert max(len(args[3]) for _, args in calls) >= 4
    cut = stopped = 0
    for ctx, (*args, bound, enough) in calls:
        _check_pair(ctx, *args)  # the unbounded radius is the enumerated one
        cut += _check_bounded(ctx, args, bound)
        exact, got = (closure2._locate_pair(ctx, *args, bound, e) for e in (-math.inf, enough))
        if got != exact:
            assert exact[0] <= got[0] <= enough < bound
            stopped += 1
    assert 0 < cut < len(calls)  # the recorded bounds cut some calls, not all
    assert stopped > 0


def _synthetic_pairs():
    """Pair-search calls on random blocks: (points, base1, base2, singles, zsets)."""
    rng = random.Random(7)
    for case in range(6):
        sizes = [rng.randint(2, 7) for _ in range(3 + case % 2)]
        pts = random_points(rng, sum(sizes) + 6)
        order = list(range(len(pts)))
        rng.shuffle(order)
        zsets = []
        for size in sizes:
            zsets.append(order[:size])
            order = order[size:]
        yield pts, [order[0:2], order[2:3]], [order[3:5]], order[5:], zsets


def test_pair_search_matches_witness_enumeration_on_synthetic_blocks():
    # s1's greedy pick (0,0) leaves s2 the far vertex: 5.5 against 3
    pts = [Point2(0, 0), Point2(10, 0), Point2(4, 0), Point2(-1, 0)]
    ctx = ScsdContext(pts)
    assert _check_pair(ctx, [[2]], [[3]], [], [[0, 1]])
    assert closure2._locate_pair(ctx, [[2]], [[3]], [], [[0, 1]])[0] == 3.0
    for pts, *args in _synthetic_pairs():
        _check_pair(ScsdContext(pts), *args)


def _property_pairs():
    """Pair-search calls on the degenerate sets (lattice, collinear,
    cocircular, near-duplicate, far clusters): (points, base1, base2,
    singles, zsets), with one to three blocks of two or three vertices."""
    rng = random.Random(8)
    for _, pts in property_sets(rng):
        order = list(range(len(pts)))
        rng.shuffle(order)
        zsets = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, 3)
            if len(order) >= size:
                zsets.append(order[:size])
                order = order[size:]
        cut1 = rng.randint(0, len(order))
        cut2 = rng.randint(cut1, len(order))
        base1, base2 = [[v] for v in order[:cut1]], [order[cut1:cut2]] if cut2 > cut1 else []
        yield pts, base1, base2, order[cut2:], zsets


def _reference_pair(ctx, base1, base2, singles, zsets):
    """The same branch-and-bound asking ``best_center`` for both disks at
    every node (s1's answer passed down to the pick child), with each
    node's picks taken from its answers: the per-node search that
    ``_locate_pair`` folds from vectors built once per call."""
    zsets = [tuple(sorted(z)) for z in zsets]
    shared = tuple((v,) for v in singles)
    base1 = tuple(tuple(c) for c in base1) + shared
    base2 = tuple(tuple(c) for c in base2) + shared
    best_r, best_pair = math.inf, None
    stack = [((), None)]
    while stack:
        ys, side1 = stack.pop()
        i = len(ys)
        free = tuple(zsets[i:])
        if side1 is None:
            side1 = ctx.best_center(base1 + tuple((y,) for y in ys) + free)
        if side1[0] >= best_r:
            continue
        classes2 = base2 + tuple(tuple(v for v in z if v != y) for z, y in zip(zsets, ys)) + free
        side2 = side1 if not ys and base1 == base2 else ctx.best_center(classes2)
        r = max(side1[0], side2[0])
        if r >= best_r:
            continue
        if not free:
            best_r, best_pair = r, (side1, side2)
            continue
        pick = side1[2][len(base1) + i]
        rest = [(ys + (y,), None) for y in zsets[i] if y != pick]
        stack.extend(reversed([(ys + (pick,), side1)] + rest))
    (_, c1, picks1), (_, c2, picks2) = best_pair
    return best_r, c1, c2, picks1, picks2


def test_pair_search_is_byte_identical_to_per_node_queries(monkeypatch):
    calls = []
    original = closure2._locate_pair

    def recorded(ctx, *args):
        calls.append((ctx, args))
        return original(ctx, *args)

    monkeypatch.setattr(closure2, "_locate_pair", recorded)
    for seed in range(1000, 1004):
        solve(generate_instance(28, seed, "clusters"), 2)
    monkeypatch.undo()
    assert max(len(args[3]) for _, args in calls) >= 4
    for pts, *args in _synthetic_pairs():
        calls.append((ScsdContext(pts), args))
    # random points, and a lattice whose equal distances tie many rows
    for pts in (random_points(random.Random(3), 12),
                [Point2(float(x), float(y)) for x in range(4) for y in range(3)]):
        for args in (([[2]], [[3]], [], [[0, 1]]),  # two classes a side: point and midpoint rows
                     ([[4, 5], [6]], [], [], [[0, 1, 7]]),  # three classes against one
                     ([[4, 5]], [[4, 5]], [6], [[0, 1], [2, 3]]),  # base1 == base2
                     ([], [], [], [[0, 1, 8], [2, 3], [9, 10, 11]]),  # only blocks
                     ([], [], [], [[0, 4], [1, 3]])):  # lattice: a unit square's diagonals
            calls.append((ScsdContext(pts), args))
    for pts, *args in _property_pairs():
        calls.append((ScsdContext(pts), args))
    for ctx, args in calls:
        # the recorded bound if any (with no stop), then the reference radius
        # and the next float above it: None at the radius, the unbounded
        # answer above
        *args, bound, _ = args if len(args) == 6 else (*args, None, None)
        ref = _reference_pair(ctx, *args)
        assert closure2._locate_pair(ctx, *args) == ref, args
        for b in (ref[0], math.nextafter(ref[0], math.inf)) if bound is None else (bound,):
            got = closure2._locate_pair(ctx, *args, b)
            assert got == (None if ref[0] >= b else ref), (args, b)


class _RecordingContext(ScsdContext):
    """A context that records the candidate row sets asked of it."""

    def __init__(self, points):
        super().__init__(points)
        self.asked = []

    def candidates(self, classes, radius):
        self.asked.append((tuple(map(tuple, classes)), radius))
        return super().candidates(classes, radius)


def test_pair_search_builds_each_vector_once(monkeypatch):
    # every case-1/3 closure of these solves, at the thresholds they probe,
    # runs on its own recording context: each side's rows are built once,
    # from its root classes (every block whole) with R = the call's bound,
    # side 2's not at all when none of side 1's goes below the bound or when
    # its root classes equal side 1's, and the answer equals the one on the
    # solve's shared context, whatever that context was asked before (each
    # call is replayed twice, with its bound and without; the bounded answer
    # is None exactly when the unbounded radius reaches the bound)
    calls = []
    equal_sides = 0
    original = closure2.locate_case1

    def recorded(g, points, topo, ctx, bound, enough):
        nonlocal equal_sides
        embs = []
        blocks = tuple(tuple(sorted(z)) for z in topo.isolated_multis)
        shared = tuple((v,) for v in topo.isolated_vertices)
        for b in (bound, math.inf):
            rec = _RecordingContext(points)
            emb = original(g, points, topo, rec, b)
            assert emb == original(g, points, topo, ctx, b)
            sides = [(tuple(map(tuple, base)) + shared + blocks, b)
                     for base in (topo.side1_classes + topo.covered_by_s2,
                                  topo.side2_classes + topo.covered_by_s1)]
            if sides[0] == sides[1]:
                assert rec.asked == sides[:1], topo.partition
                equal_sides += 1
            else:
                assert rec.asked == sides or (rec.asked == sides[:1] and emb is None), \
                    topo.partition
            embs.append(emb)
        cut, full = embs
        assert cut == (None if full.radius >= bound else full), topo.partition
        calls.append((len(blocks), sum(map(len, blocks))))
        return cut

    monkeypatch.setattr(closure2, "locate_case1", recorded)
    monkeypatch.setattr(closure2, "locate_case3", recorded)
    for seed in range(1000, 1004):
        solve(generate_instance(28, seed, "clusters"), 2)
    # the pair search branched over several blocks with many vertices, and
    # some calls shared one side's rows between both
    assert max(m for m, _ in calls) >= 4 and max(c for _, c in calls) > 20
    assert equal_sides > 0


def test_block_minus_vertex_vectors_equal_the_minimum_over_the_rest():
    # per block, the distance matrix holds each vertex's column, and the
    # block minus y is the minimum over Z - {y} of those columns, bit for
    # bit; lattice ties put two vertices at the same distance from many rows
    rng = random.Random(12)
    seen = 0
    for _, pts in property_sets(rng):
        ctx = ScsdContext(pts)
        order = list(range(len(pts)))
        rng.shuffle(order)
        a = min(3, len(order) - 2)  # blocks of three (or two) and two vertices
        zsets = [tuple(sorted(order[:a])), tuple(sorted(order[a:a + 2]))]
        base = ((order[a + 2],),) if len(order) > a + 2 else ()
        rows, fold, blocks, _ = closure2._side(ctx, base, zsets, math.inf)
        column = {v: np.hypot(rows[:, 0] - pts[v].x, rows[:, 1] - pts[v].y) for v in order}
        for z, (d, minus) in zip(zsets, blocks):
            assert d.shape == minus.shape == (len(z), len(rows))
            for t, y in enumerate(z):
                assert np.array_equal(d[t], column[y])
                want = functools.reduce(np.minimum, (column[v] for v in z if v != y))
                assert np.array_equal(minus[t], want), (z, y)
            seen += int((d[0] == d[1]).any())
    assert seen > 0  # some rows tie two block vertices


def test_distinct_disk_equals_conditioning_on_every_witness():
    # unconditioned, a class inside h gets r = 0 with one vertex picked for
    # both, so that query is not asked; the witnesses whose half distance to
    # their nearest other vertex is past the least one + eps are skipped.
    # The answer equals conditioning on every witness, lattice ties included.
    rng = random.Random(11)
    sets = [random_points(rng, n) for n in (5, 9, 14)]
    sets.append([Point2(float(x), float(y)) for x in range(4) for y in range(3)])
    for pts in sets:
        ctx = ScsdContext(pts)
        h = list(range(len(pts)))
        for _ in range(6):
            cls = sorted(rng.sample(h, rng.randint(1, len(h) - 1)))
            r, _, picks = ctx.best_center([cls, h])
            assert r == 0.0 and picks[0] == picks[1]
            want = None
            for x in cls:
                res = ctx.best_center([[x], [v for v in h if v != x]])
                if want is None or res[0] < want[0]:
                    want = res
            assert closure2._distinct_disk(ctx, cls, h) == want, (len(pts), cls)


def test_crossing_edges_structural_form():
    # in a crossing-edge embedding the two extra edges attach on opposite
    # sides of every cut vertex they are meant to bridge
    pts = [Point2(float(i), 0.1 * (i % 2)) for i in range(6)]
    g = geometric_graph(pts, [(i, i + 1) for i in range(5)])
    bcf = block_cut_forest(g)
    for part in enumerate_partitions(bcf):
        topo = classify(g, part)
        if topo.case_tag != "case2":
            continue
        emb = locate_case2(g, pts, topo)
        assert is_biconnected(_embedded_graph(g, pts, emb))
        if emb.case_tag == "case2_1":
            assert emb.chosen_index is not None
