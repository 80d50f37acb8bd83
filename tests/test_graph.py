import random

import pytest

from mbsn.geom import Point2
from mbsn.graph import (b_count, block_cut_forest, geometric_graph, is_biconnected,
                        is_biconnected_edges, is_connected, make_graph, max_edge_length)

from conftest import naive_b_count, naive_blocks, naive_cut_vertices, random_graph


def test_connected_path():
    assert is_connected(make_graph(3, [(0, 1), (1, 2)]))


def test_connected_two_disjoint_edges():
    assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))


def test_connected_single_vertex():
    assert is_connected(make_graph(1, []))


def test_biconnected_k1():
    assert is_biconnected(make_graph(1, []))


def test_biconnected_k2():
    assert is_biconnected(make_graph(2, [(0, 1)]))
    assert not is_biconnected(make_graph(2, []))


def test_biconnected_path_false():
    assert not is_biconnected(make_graph(3, [(0, 1), (1, 2)]))


def test_biconnected_cycle():
    assert is_biconnected(make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_bcf_bowtie():
    g = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bcf = block_cut_forest(g)
    assert len(bcf.blocks) == 2
    assert bcf.cut_vertices == frozenset({2})
    assert set(bcf.leaf_blocks) == {0, 1}
    assert bcf.isolated_blocks == ()


def test_bcf_cycle_isolated():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    bcf = block_cut_forest(g)
    assert len(bcf.blocks) == 1
    assert bcf.isolated_blocks == (0,)
    assert bcf.cut_vertices == frozenset()


def test_bcf_path_interiors():
    g = make_graph(3, [(0, 1), (1, 2)])
    bcf = block_cut_forest(g)
    assert set(bcf.blocks) == {(0, 1), (1, 2)}
    assert bcf.cut_vertices == frozenset({1})
    assert set(bcf.interiors) == {(0,), (2,)}
    assert set(bcf.leaf_tau.values()) == {1}


def test_b_count_triangle():
    assert b_count(make_graph(3, [(0, 1), (1, 2), (0, 2)])) == 2


def test_b_count_path():
    assert b_count(make_graph(3, [(0, 1), (1, 2)])) == 2


def test_b_count_two_disjoint_edges():
    assert b_count(make_graph(4, [(0, 1), (2, 3)])) == 4


def test_b_count_isolated_vertices():
    assert b_count(make_graph(3, [])) == 6


def test_max_edge_length():
    pts = [Point2(0, 0), Point2(10, 0), Point2(5, 1)]
    g = geometric_graph(pts, [(0, 1), (0, 2), (1, 2)])
    ln, e = max_edge_length(g)
    assert ln == 10.0 and e == (0, 1)
    single = geometric_graph([Point2(0, 0), Point2(3, 0)], [(0, 1)])
    assert max_edge_length(single) == (3.0, (0, 1))
    square = geometric_graph([Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)],
                             [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert max_edge_length(square)[0] == pytest.approx(1.0)


def test_max_edge_length_errors():
    with pytest.raises(ValueError):
        max_edge_length(make_graph(3, [(0, 1)]))
    with pytest.raises(ValueError):
        max_edge_length(geometric_graph([Point2(0, 0), Point2(1, 0)], []))


def test_bcf_matches_naive_on_random_graphs():
    rng = random.Random(42)
    for trial in range(200):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.uniform(0.03, 0.3))
        bcf = block_cut_forest(g)
        assert {frozenset(b) for b in bcf.blocks} == naive_blocks(g), trial
        assert set(bcf.cut_vertices) == naive_cut_vertices(g), trial
        assert b_count(g) == naive_b_count(g), trial
        # classification consistency
        for i, blk in enumerate(bcf.blocks):
            k = len(set(blk) & bcf.cut_vertices)
            assert (i in bcf.leaf_blocks) == (k == 1)
            assert (i in bcf.isolated_blocks) == (k == 0)
            assert set(bcf.interiors[i]) == set(blk) - bcf.cut_vertices


def test_b_count_monotone_under_edge_subgraph():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(2, 20)
        g2 = random_graph(rng, n, rng.uniform(0.1, 0.5))
        kept = [e for e in g2.edges if rng.random() < 0.7]
        g1 = make_graph(n, kept)
        assert b_count(g1) >= b_count(g2)


def test_biconnected_iff_single_block():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(3, 15)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        bcf = block_cut_forest(g)
        expect = is_connected(g) and len(bcf.blocks) == 1
        assert is_biconnected(g) == expect


def _connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return n == 0 or len(seen) == n


def _cycle(vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def test_biconnected_edge_list_matches_deletion_oracle():
    """The low-point pass against cut vertices found by deletion plus a
    connectivity check, on edge lists in shuffled order and orientation."""
    cases = [(0, []), (1, []), (2, []), (2, [(0, 1)]), (3, _cycle([0, 1, 2])),
             (6, _cycle([0, 1, 2]) + _cycle([3, 4, 5])),  # two disjoint cycles
             (8, _cycle([0, 1, 2, 3]) + _cycle([4, 5, 6, 7])),
             (5, _cycle([0, 1, 2]) + _cycle([0, 3, 4])),  # the root is the cut vertex
             (5, _cycle([1, 2, 3]) + _cycle([1, 4, 0])),  # a non-root cut vertex
             (7, _cycle([0, 1, 2]) + _cycle([3, 4, 5]) + [(2, 3), (6, 0), (6, 1)]),  # bridge
             (5, [(a, b) for a in range(4) for b in range(a + 1, 4)]),  # K4 + isolated vertex
             (5, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]),  # isolated root
             (6, _cycle([0, 1, 2, 3, 4, 5]) + [(0, 3)])]
    rng = random.Random(2024)
    for _ in range(600):
        n = rng.randint(0, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        cases.append((n, list(g.edges)))
    seen = {True: 0, False: 0}
    for n, edges in cases:
        g = make_graph(n, edges)
        if n <= 1:
            expect = True
        elif n == 2:
            expect = len(g.edges) == 1
        else:
            expect = _connected(n, g.edges) and not naive_cut_vertices(g)
        assert is_biconnected(g) == expect, (n, edges)
        for _ in range(3):
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
            rng.shuffle(shuffled)
            assert is_biconnected_edges(n, shuffled) == expect, (n, shuffled)
        seen[expect] += 1
    assert min(seen.values()) >= 100, seen


def test_graph_validation():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])
