import functools
import math
import random

import numpy as np
import pytest

from mbsn.cli import generate_instance
from mbsn.geom import Point2, bbox_diagonal, geometry_eps
from mbsn.graph import is_biconnected
from mbsn import rng as rng_module
from mbsn.rng import (_CERTIFY_ABOVE, _CHUNK, _NEIGHBOURS, _WITNESSES, _distance_matrix, _nearest,
                      _sector, _sector_candidates, _sector_radii, build_2rng, length_schedule,
                      threshold_subgraph)

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


def _certificate_instances() -> dict[str, list[Point2]]:
    """Small sets for the sector certificate, which runs on them only when
    forced: random uniform and clustered, the degenerate sets, a pair closer
    than 16 eps, and a set shifted by 1e6 and scaled anisotropically."""
    rng = random.Random(41)
    sets = {}
    for trial in range(8):
        n = rng.randint(12, 80)
        dist = "uniform" if trial % 2 == 0 else "clusters"
        sets[f"{dist}-{n}-{trial}"] = generate_instance(n, rng.randrange(10**6), dist)
    sets.update(_degenerate_instances())
    base = generate_instance(60, 5, "uniform")
    close = 8.0 * geometry_eps(base)
    sets["pair-within-16eps"] = base + [Point2(base[0].x + close, base[0].y + close / 3)]
    sets["shifted-anisotropic"] = [Point2(1e6 + 3.0 * p.x, -1e6 + 0.01 * p.y) for p in base]
    sets["tiny"] = [Point2(0, 0), Point2(3, 0), Point2(1, 2)]
    return sets


@pytest.mark.parametrize("name", sorted(_certificate_instances()))
def test_sector_certificate_drops_only_pairs_with_two_points_in_their_lune(name, monkeypatch):
    pts = _certificate_instances()[name]
    n, eps = len(pts), geometry_eps(pts)
    x = np.array([p.x for p in pts])
    y = np.array([p.y for p in pts])
    dist = _distance_matrix(x, y)
    rho, named = _sector_radii(dist, x, y, eps, _nearest(dist, _NEIGHBOURS))
    kept = set()
    for s in range(0, n, _CHUNK):
        i, j = _sector_candidates(dist, x, y, rho, s)
        assert np.all(i < j)
        kept |= set(zip(i.tolist(), j.tolist()))
    edges, lengths = _direct_2rng(pts)
    assert set(edges) <= kept
    dropped = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in kept]
    for i, j in dropped:
        # one endpoint's sector names two points, other than i and j, that
        # pass the strict lune predicate for ij
        certified = False
        for p, q in ((i, j), (j, i)):
            c = _sector(x[[q]] - x[p], y[[q]] - y[p])[0]
            if dist[p, q] >= rho[p, c]:
                w = named[p, c]
                assert len({p, q, *w.tolist()}) == 4
                assert np.all(dist[p, w] < dist[p, q] - eps) and np.all(dist[q, w] < dist[p, q] - eps)
                certified = True
        assert certified, (i, j)
    assert dropped or n < 4  # the certificate does drop pairs
    # the whole build with the certificate forced on is still the direct count
    monkeypatch.setattr(rng_module, "_CERTIFY_ABOVE", 0)
    g = build_2rng(pts)
    assert (g.edges, g.lengths) == (edges, lengths)


@functools.cache
def _switch_instances() -> dict[str, list[Point2]]:
    """Sets just above the certificate's switch; the lattice has many equal
    lengths, and the degenerate families of ``_degenerate_instances`` come
    at n = 600 (the far clusters' cross edges are longer than either
    endpoint's 32nd-neighbour distance)."""
    n = _CERTIFY_ABOVE + 1
    base = generate_instance(599, 13, "uniform")
    return {"uniform-above-switch": generate_instance(n, 11, "uniform"),
            "clusters-above-switch": generate_instance(n, 12, "clusters"),
            "lattice-23x23": [Point2(i, j) for i in range(23) for j in range(23)],
            "collinear-600": [Point2(0.5 * i, 0.25 * i) for i in range(600)],
            "cocircular-600": [Point2(math.cos(2 * math.pi * i / 600),
                                      math.sin(2 * math.pi * i / 600)) for i in range(600)],
            "near-duplicate-600": base + [Point2(base[0].x + 1e-10 * bbox_diagonal(base),
                                                 base[0].y)],
            "far-clusters-600": _far_clusters(random.Random(2027), 600)}


@pytest.mark.parametrize("name", sorted({**chunk_boundary_instances(), **_switch_instances()}))
def test_2rng_across_row_blocks_equals_direct_count(name):
    pts = {**chunk_boundary_instances(), **_switch_instances()}[name]
    assert len(pts) > (_CERTIFY_ABOVE if name in _switch_instances() else _CHUNK)
    g = build_2rng(pts)
    edges, lengths = _direct_2rng(pts)
    assert g.edges == edges
    assert g.lengths == lengths


def _record_full_count(monkeypatch) -> list[tuple[int, int]]:
    """The list to which every pair sent to the full-row count is appended."""
    sent = []
    full_count = rng_module._full_count

    def recording(dist, iu, ju, eps):
        sent.extend(zip(iu.tolist(), ju.tolist()))
        return full_count(dist, iu, ju, eps)

    monkeypatch.setattr(rng_module, "_full_count", recording)
    return sent


def test_local_count_and_its_fallback_both_run_above_the_switch(monkeypatch):
    """Above the switch a survivor no longer than an endpoint's farthest
    neighbour (kd) is counted over that endpoint's 32 neighbours; only the
    others go to the full-row count.  Every edge survives the filters, so an
    edge the full count never saw was counted over 32 neighbours."""
    sent = _record_full_count(monkeypatch)
    local, fallback = set(), set()
    for name, pts in _switch_instances().items():
        sent.clear()
        g = build_2rng(pts)
        dist = _distance_matrix(np.array([p.x for p in pts]), np.array([p.y for p in pts]))
        kd = np.take_along_axis(dist, _nearest(dist, _NEIGHBOURS), axis=1).max(axis=1)
        assert all(dist[i, j] > max(kd[i], kd[j]) for i, j in sent), name
        far = {(i, j) for i, j in g.edges if dist[i, j] > max(kd[i], kd[j])}
        assert far <= set(sent), name
        if set(g.edges) - set(sent):
            local.add(name)
        if far:
            fallback.add(name)
    assert local == set(_switch_instances())
    assert "far-clusters-600" in fallback


def test_lune_points_beyond_both_neighbour_lists_are_counted(monkeypatch):
    """p and q each have 40 neighbours on an arc of radius 0.9-1 facing away
    from the other, so kd < |pq| = 1.2 < 1.5 kd at both ends, and the lune of
    pq holds two points at distance 1.08 from both, in neither neighbour
    list.  Only the full-row count sees them: pq is not an edge."""
    rng = random.Random(5)
    arc = [(rng.uniform(0.9, 1.0), math.radians(rng.uniform(125.0, 235.0))) for _ in range(40)]
    pts = [Point2(0.0, 0.0), Point2(1.2, 0.0), Point2(0.6, 0.9), Point2(0.6, -0.9)]
    pts += [Point2(r * math.cos(a), r * math.sin(a)) for r, a in arc]
    pts += [Point2(1.2 - r * math.cos(a), r * math.sin(a)) for r, a in arc]
    sent = _record_full_count(monkeypatch)
    monkeypatch.setattr(rng_module, "_CERTIFY_ABOVE", 0)
    g = build_2rng(pts)
    assert (g.edges, g.lengths) == _direct_2rng(pts)
    assert (0, 1) in sent and (0, 1) not in g.edges
