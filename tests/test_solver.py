import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest

from mbsn import closure2, graph, solver
from mbsn.cli import generate_instance
from mbsn.geom import Point2, distance
from mbsn.graph import (block_cut_forest, connecting_prefix, degree_prefix,
                        is_biconnected_edges, is_connected, least_biconnected_prefix)
from mbsn.rng import build_2rng, length_schedule, threshold_subgraph
from mbsn.solver import mbsn0, mbsn1, mbsn2, solve, threshold_scan

from conftest import chunk_boundary_instances, property_sets, random_points
from test_graph import _length_order
from test_rng import _degenerate_instances

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


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_validate_checks_the_bottleneck_at_every_scale(scale):
    # the bottleneck check is relative to the instance: at 1e-13 a recorded
    # bottleneck of 0 is as wrong as at 1e6
    pts = [Point2(0, 0), Point2(scale, 0), Point2(scale, scale), Point2(0.5 * scale, 1.5 * scale)]
    for k in (0, 1, 2):
        net = solve(pts, k)
        net.validate()
        for wrong in (0.0, 0.5 * net.bottleneck, 2.0 * net.bottleneck):
            with pytest.raises(ValueError):
                dataclasses.replace(net, bottleneck=wrong).validate()


def _degenerate_sets():
    """The lattice, collinear, cocircular, near-duplicate and far-cluster
    generators' point sets."""
    return ([pts for _, pts in property_sets(random.Random(7))]
            + list(_degenerate_instances().values()))


def test_sandwich_and_invariants_random():
    rng = random.Random(8)
    sets = [random_points(rng, rng.randint(2, 10)) for _ in range(25)]
    sets += _degenerate_sets() + [pts for _, pts in property_sets(random.Random(8))]
    for pts in sets:
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


def test_each_evaluation_prices_the_network_it_returns():
    # a k >= 1 evaluation's radius is the longest Steiner edge of its
    # payload, bit for bit: the closure prices its points after the nudge
    evaluations = 0
    for pts in _degenerate_sets():
        for k in (1, 2):
            _, lengths, evaluate = solver._pipeline(pts, k)
            for t in lengths:
                feasible, radius, payload = evaluate(t)
                if not feasible:
                    continue
                _, steiner, edges = payload
                at = pts + list(steiner)
                assert radius == max(distance(at[u], at[v]) for u, v in edges), (len(pts), k, t)
                evaluations += 1
    assert evaluations > 200


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


def _k2_cut_instances():
    """Two k2-mid instances (clustered n = 28) and suite-style n = 4..30,
    alternating uniform and clustered layouts."""
    for seed in (1000, 1001):
        yield generate_instance(28, seed, "clusters")
    for i, n in enumerate(range(4, 31, 2)):
        yield generate_instance(n, 40_000 + i, "uniform" if i % 2 == 0 else "clusters")


def test_k2_cut_evaluator_agrees_with_the_uncut_one():
    # at every threshold, a cutoff at, just above and just below the uncut
    # radius r, and at r / 2: the cut evaluator must give the uncut result
    # when r is below its cutoff, and may say ABOVE only when r is not;
    # infeasible stays infeasible.  The cut search returns exactly what the
    # uncut one does.
    aboves = 0
    for pts in _k2_cut_instances():
        _, lengths, evaluate = solver._pipeline(pts, 2)
        for t in lengths:
            uncut = evaluate(t)
            radius = uncut[1]
            for cutoff in (radius, math.nextafter(radius, math.inf),
                           math.nextafter(radius, -math.inf), radius / 2.0):
                cut = evaluate(t, cutoff)
                if radius < cutoff or not uncut[0]:
                    assert cut == uncut, (len(pts), t, cutoff)
                else:
                    assert cut in (uncut, solver.ABOVE), (len(pts), t, cutoff)
                    aboves += cut == solver.ABOVE
        assert solver._binary_search(lengths, evaluate) == \
            solver._binary_search(lengths, lambda t, cutoff, enough=-math.inf: evaluate(t))
    assert aboves > 0


def _recording_search(lengths, evaluate):
    """The record-as-you-go search the solver used before it split deciding
    from pricing: each probe gets the cutoff max(t+, best) and records its
    objective when strictly below the best so far."""
    lo, hi = 0, len(lengths) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        t = lengths[mid]
        cutoff = max(math.nextafter(t, math.inf), best[0] if best else math.inf)
        feasible, radius, payload = evaluate(t, cutoff)
        if not feasible or payload is None:
            lo = mid + 1
            continue
        obj = max(radius, t)
        if best is None or obj < best[0]:
            best = (obj, t, payload)
        if radius <= t:
            hi = mid - 1
        else:
            lo = mid + 1
    return best


def _synthetic_search_case(rng):
    """A schedule, a monotone step radius with plateaus and r == t ties above
    an infeasible prefix, and an evaluator that honours its cutoff (with a
    slack above it, as the k = 2 nudge allows) or ignores it (as k = 1), and
    that honours ``enough`` (as k = 2) with a radius of ``enough`` itself and
    no payload, as a closure that stopped there returns, or ignores it (as
    k = 0 and 1); then whether it ignores ``enough``."""
    m = rng.randint(1, 14)
    lengths = sorted(float(x) for x in rng.sample(range(0, 3 * m + 2), m))
    infeasible = rng.randint(0, m - 1)
    pool = rng.sample(lengths + [x + 0.5 for x in lengths], min(2 * m, rng.randint(1, 4)))
    radii = [math.inf] * infeasible + sorted((rng.choice(pool) for _ in range(m - infeasible)),
                                             reverse=True)
    at = dict(zip(lengths, radii))
    honours, slack = rng.random() < 0.6, rng.choice((0.0, 0.0, 0.25))
    decides = rng.random() < 0.5
    infeasible_eval = (False, rng.choice((0.0, math.inf)), rng.choice((None, "k = 0 prefix")))

    def evaluate(t, cutoff=math.inf, enough=-math.inf):
        r = at[t]
        if r == math.inf:
            return infeasible_eval
        if honours and r >= cutoff + slack:
            return solver.ABOVE
        if decides and r <= enough:
            return True, enough, None
        return True, r, ("payload", t)

    return lengths, evaluate, not decides


def test_split_search_equals_the_record_as_you_go_search():
    # a search whose evaluator ignores ``enough`` keeps its decision
    # payloads, and evaluates no down-probe twice
    rng = random.Random(13)
    for _ in range(4000):
        lengths, evaluate, exact = _synthetic_search_case(rng)
        want = _recording_search(lengths, evaluate)
        assert solver._binary_search(lengths, evaluate) == want
        if exact:
            seen = []

            def counting(t, cutoff, enough=-math.inf):
                seen.append(t)
                return evaluate(t, cutoff, enough)

            assert solver._binary_search(lengths, counting) == want
            downs = [t for t in set(seen) if evaluate(t)[0] and evaluate(t)[1] <= t]
            assert all(seen.count(t) == 1 for t in downs)


def test_k2_search_decides_at_each_threshold_and_prices_only_after():
    # the decision phase asks each probe only about its own threshold and
    # visits the mids of the record-as-you-go search; any higher cutoff
    # comes after it, once per feasible up-probe at most; the last
    # down-probe is evaluated again, exactly, only when it is the answer
    # and its decision stopped at ``enough`` (it then has no payload)
    priced_calls = repriced = 0
    instances = [generate_instance(28, seed, "clusters") for seed in (1000, 1001)]
    instances += [[Point2(i, j) for i in range(5) for j in range(5)],
                  generate_instance(6, 10_002, "uniform")]
    for pts in instances:
        _, lengths, evaluate = solver._pipeline(pts, 2)
        calls, visited = [], []

        def recording(t, cutoff, enough=-math.inf):
            calls.append((t, cutoff, evaluate(t, cutoff, enough), enough))
            return calls[-1][2]

        def visiting(t, cutoff):
            visited.append(t)
            return evaluate(t, cutoff)

        answer = solver._binary_search(lengths, recording)
        assert answer == _recording_search(lengths, visiting)
        decided, priced = calls[:len(visited)], calls[len(visited):]
        assert [t for t, _, _, _ in decided] == visited
        assert all(cutoff == math.nextafter(t, math.inf) and enough == t
                   for t, cutoff, _, enough in decided)
        ups = {t for t, _, (feasible, r, _), _ in decided if feasible and r > t}
        downs = [(t, payload) for t, _, (feasible, r, payload), _ in decided
                 if feasible and r <= t]
        if priced and priced[-1][0] not in ups:  # the last down-probe won
            t, cutoff, _, enough = priced.pop()
            assert answer[1] == t == downs[-1][0] and downs[-1][1] is None
            assert (cutoff, enough) == (math.nextafter(t, math.inf), -math.inf)
            repriced += 1
        elif downs and answer[1] == downs[-1][0]:
            assert answer[2] is downs[-1][1]  # kept, not priced again
        assert all(cutoff > math.nextafter(t, math.inf) for t, cutoff, _, _ in priced)
        assert len({t for t, _, _, _ in priced}) == len(priced) and {t for t, _, _, _ in priced} <= ups
        priced_calls += len(priced)
    assert priced_calls > 0
    assert repriced > 0  # the uniform n = 6


def _recording_probes(monkeypatch):
    """Records every threshold the solver evaluates, every forest built
    (the graphs, by edge count) and every topology closure2 classifies."""
    seen = {"evaluated": [], "forests": [], "topologies": [], "block_paths": []}
    make, build, path, topology = (solver._evaluator, graph.block_cut_forest,
                                   closure2._block_path, closure2.classify)

    def evaluator(r, pts, k):
        evaluate = make(r, pts, k)
        return lambda t, *args: seen["evaluated"].append(t) or evaluate(t, *args)

    def classify(g, part):
        topo = topology(g, part)
        seen["topologies"].append((len(g.edges), part, topo.case_tag))
        return topo

    monkeypatch.setattr(solver, "_evaluator", evaluator)
    monkeypatch.setattr(graph, "block_cut_forest",
                        lambda g: seen["forests"].append(len(g.edges)) or build(g))
    monkeypatch.setattr(closure2, "_block_path",
                        lambda m0, n: seen["block_paths"].append(n) or path(m0, n))
    monkeypatch.setattr(closure2, "classify", classify)
    return seen


def test_k2_probe_states_decompose_each_threshold_once(monkeypatch):
    # one forest per distinct threshold, however often the decision,
    # crossing, plateau and re-pricing evaluate it; one classify per
    # threshold and partition; one block path per case-2 topology
    seen = _recording_probes(monkeypatch)
    repeats = case2 = 0
    for pts in _k2_cut_instances():
        for v in seen.values():
            v.clear()
        solve(pts, 2)
        distinct = set(seen["evaluated"])
        repeats += len(seen["evaluated"]) - len(distinct)
        assert len(seen["forests"]) == len(set(seen["forests"])) == len(distinct)
        assert len(set(seen["topologies"])) == len(seen["topologies"])
        case2 += len(seen["block_paths"])
        assert len(seen["block_paths"]) == sum(tag == "case2" for _, _, tag in seen["topologies"])
    assert repeats > 0 and case2 > 0, (repeats, case2)


def test_k1_builds_no_forest_below_the_connectivity_index(monkeypatch):
    seen = _recording_probes(monkeypatch)
    below = 0
    for seed in (1000, 1001, 11000, 11001):
        pts = generate_instance(96, seed, "uniform" if seed % 2 == 0 else "clusters")
        for v in seen.values():
            v.clear()
        solve(pts, 1)
        forests = list(seen["forests"])  # before is_connected below builds forests of its own
        r = build_2rng(pts)
        connected = [t for t in seen["evaluated"] if is_connected(threshold_subgraph(r, t))]
        below += len(seen["evaluated"]) - len(connected)
        assert sorted(forests) == sorted(len(threshold_subgraph(r, t).edges) for t in connected)
    assert below > 0


def _verdict(ev, t):
    feasible, r, _ = ev
    return "infeasible" if not feasible else "ABOVE" if ev == solver.ABOVE else \
        "r <= t" if r <= t else "r > t"


def test_k2_decided_verdicts_equal_exact_verdicts(monkeypatch):
    # at every threshold, deciding with enough = t gives the exact
    # evaluation's verdict, and a decided closure at most t (also one that
    # stopped at enough, whose payload the evaluator drops: it is kept here)
    # assembles into a valid network with a bottleneck at most t; wherever
    # the nudge moves a Steiner point it lengthens no edge by more than
    # nudge_growth of the radius before it
    shifted = [Point2(1e6 + 1e-3 * p.x, 1e6 + 1e-3 * p.y)
               for p in generate_instance(16, 1000, "clusters")]
    sets = [generate_instance(28, seed, "clusters") for seed in range(1000, 1004)]
    sets += [[Point2(float(i), float(j)) for i in range(5) for j in range(5)],
             [Point2(0.25 * t - 1.0, 0.5 - 0.5 * t) for t in (0, 1, 3, 4, 7, 8, 9, 13, 20)],
             [Point2(0.25 * t - 1.0, 0.5 - 0.5 * t) for t in range(4)],  # its case 2 nudges
             shifted]
    nudges, separate = [], closure2.separate_embedding

    def recording(emb, points):
        out = separate(emb, points)
        if out.steiner != emb.steiner:
            nudges.append(out.radius - emb.radius <= closure2.nudge_growth(points, emb.radius))
        return out

    stops, closure = [], solver.optimal_2block_closure

    def keeping(*args):
        emb = closure(*args)
        stops.append(emb is not None and emb.stopped)
        return emb and dataclasses.replace(emb, stopped=False)

    monkeypatch.setattr(closure2, "separate_embedding", recording)
    monkeypatch.setattr(solver, "optimal_2block_closure", keeping)
    stopped = 0
    for pts in sets:
        _, lengths, evaluate = solver._pipeline(pts, 2)
        for t in lengths:
            cutoff = math.nextafter(t, math.inf)
            exact, decided = evaluate(t, cutoff), evaluate(t, cutoff, t)
            assert _verdict(decided, t) == _verdict(exact, t), (len(pts), t)
            if _verdict(decided, t) == "r <= t":
                net = solver._assemble(tuple(pts), t, decided[2])
                net.validate()
                assert net.bottleneck <= t, (len(pts), t)
                stopped += stops[-1]
                assert stops[-1] or decided == exact
    assert stopped > 0 and nudges and all(nudges), (stopped, nudges)


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


def test_k0_floor_is_never_past_the_first_biconnected_prefix():
    """A k = 0 probe below the least connecting prefix or, for n >= 3, the
    least prefix giving every vertex degree 2 is rejected with no graph
    work.  Neither floor passes the first 2-connected prefix of a linear
    scan, the verdicts are the scan's, and the answer is the first feasible
    threshold.  The degree floor binds on some sets, connectivity on others."""
    sets = {"n2": [Point2(0, 0), Point2(7, 0)], "n3": TRI, **_degenerate_instances()}
    for n in (12, 20, 36, 60):
        for dist in ("uniform", "clusters"):
            sets[f"{dist}-{n}"] = generate_instance(n, n, dist)
    binds = set()
    for name, pts in sets.items():
        n, r = len(pts), build_2rng(pts)
        edges = [e for _, e in sorted(zip(r.lengths, r.edges))]
        first = next(p for p in range(len(edges) + 1) if is_biconnected_edges(n, edges[:p]))
        by_connectivity = connecting_prefix(n, edges)
        by_degree = degree_prefix(n, edges) if n >= 3 else 0
        assert max(by_connectivity, by_degree) <= first, name
        binds.add("degree" if by_degree > by_connectivity else
                  "connectivity" if by_connectivity > by_degree else "both")
        scan = threshold_scan(pts, 0)
        lengths = sorted(r.lengths)
        assert [e.feasible for e in scan] == [
            is_biconnected_edges(n, edges[:bisect_right(lengths, e.threshold)]) for e in scan], name
        assert solve(pts, 0).threshold == next(e.threshold for e in scan if e.feasible), name
    assert {"degree", "connectivity"} <= binds, binds


def _k0_floor(n: int, edges: list[tuple[int, int]]) -> int:
    return max(connecting_prefix(n, edges), degree_prefix(n, edges) if n >= 3 else 0)


def _valley_line(n: int) -> list[Point2]:
    """Points (x_i, 0) whose gaps are 1 + 1e-3 min(i, n - 2 - i).  The 2-RNG
    is the path and its skip-one edges (2n - 3 edges); the skip-one edges
    come in from both ends inwards, so a prefix is a line of blocks whose
    leaf blocks each gain about one edge per jump of the k = 0 walk."""
    xs = itertools.accumulate((1 + 1e-3 * min(i, n - 2 - i) for i in range(n - 1)), initial=0.0)
    return [Point2(x, 0.0) for x in xs]


def test_least_biconnected_prefix_equals_the_linear_scan():
    """The k = 0 walk from the evaluator's floor (and from 0) finds the
    first 2-connected prefix of a linear scan on the degenerate,
    chunk-boundary, uniform and clustered 2-RNGs."""
    sets = {**_degenerate_instances(), **chunk_boundary_instances(),
            "valley-64": _valley_line(64)}
    for n in range(3, 61):
        for dist in ("uniform", "clusters"):
            sets[f"{dist}-{n}"] = generate_instance(n, 1000 + n, dist)
    for name, pts in sets.items():
        n, edges = len(pts), _length_order(build_2rng(pts))
        scan = next(p for p in range(len(edges) + 1) if is_biconnected_edges(n, edges[:p]))
        assert least_biconnected_prefix(n, edges, _k0_floor(n, edges)) == scan, name
        assert least_biconnected_prefix(n, edges) == scan, name


def test_k0_walk_bisects_on_the_valley_line(monkeypatch):
    """On the valley line jumps alone would need about n / 2 passes (510 at
    n = 1024); the bisection fallback keeps the walk within
    2 ceil(log2 m) + 2 passes, and its answer is the least 2-connected
    prefix."""
    passes = []
    closed_blocks = graph.closed_blocks

    def counting(*args):
        passes.append(len(args[1]))  # the prefix probed
        return closed_blocks(*args)

    n = 1024
    edges = _length_order(build_2rng(_valley_line(n)))
    m = len(edges)
    assert m == 2 * n - 3
    monkeypatch.setattr(graph, "closed_blocks", counting)
    least = least_biconnected_prefix(n, edges, _k0_floor(n, edges))
    monkeypatch.undo()
    assert 3 < len(passes) <= 2 * math.ceil(math.log2(m)) + 2, len(passes)
    assert is_biconnected_edges(n, edges[:least])
    assert not is_biconnected_edges(n, edges[:least - 1])


def test_assemble_receives_sorted_pairs(monkeypatch):
    """``_assemble`` sorts the edges of G_t and the Steiner edges together
    without reorienting them: every edge it receives at k = 0, 1 and 2 is
    already a pair u < v."""
    received = []
    assemble = solver._assemble

    def recording(pts, t, payload):
        received.append([*payload[0], *payload[2]])
        return assemble(pts, t, payload)

    monkeypatch.setattr(solver, "_assemble", recording)
    sets = [TRI, SQUARE, DUMBBELL, *(pts for _, pts in property_sets(random.Random(8)))]
    sets += [generate_instance(n, 500 + n, dist) for n in range(4, 13)
             for dist in ("uniform", "clusters")]
    for pts in sets:
        for k in (0, 1, 2):
            solve(pts, k)
    assert len(received) == 3 * len(sets)
    assert all(u < v for edges in received for u, v in edges)


# one k = 1 solve of uniform n = 512, seed 1, with the address space capped
# at 3 GB; prints b1, b0 and whether validate() passed
_CAPPED_K1 = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from mbsn.cli import generate_instance
from mbsn.solver import solve
pts = generate_instance(512, 1, "uniform")
net = solve(pts, 1)
net.validate()
print(json.dumps({"b1": net.bottleneck, "b0": solve(pts, 0).bottleneck}))
"""


def test_k1_n512_solves_under_a_3gb_address_cap():
    # a k = 1 query of three or more classes evaluates only its own
    # candidates: no dense block of every centre-to-point distance and no
    # C(n, 3) circumcentre rows, which exceeded this cap
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_K1], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["b1"] <= out["b0"]
