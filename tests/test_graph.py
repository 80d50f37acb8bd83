import random

import pytest

from mbsn.cli import generate_instance
from mbsn.closure2 import classify, enumerate_partitions
from mbsn.geom import Point2
from mbsn.graph import (Graph, b_count, block_cut_forest, connected_components,
                        connecting_prefix, degree_prefix, geometric_graph, is_biconnected,
                        is_biconnected_edges, is_connected, least_biconnected_prefix, make_graph,
                        max_edge_length)
from mbsn.rng import build_2rng

from conftest import (chunk_boundary_instances, naive_b_count, naive_blocks,
                      naive_cut_vertices, property_sets, random_graph)


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


def _deletion_forest(g):
    """Blocks and cut vertices by deletion, one search of G - w per vertex w:
    two edges at w share a block exactly when their far ends stay connected
    in G - w, and w is a cut vertex exactly when its neighbours fall in two
    or more components of G - w."""
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = {e: e for e in g.edges}

    def find(e):
        while root[e] != e:
            e = root[e]
        return e

    cuts = set()
    for w in range(n):
        label = [None] * n
        label[w] = w
        for s in adj[w]:
            if label[s] is None:
                label[s], stack = s, [s]
                while stack:
                    for y in adj[stack.pop()]:
                        if label[y] is None:
                            label[y] = s
                            stack.append(y)
        first = {}
        for x in adj[w]:
            e = (min(w, x), max(w, x))
            if label[x] in first:
                root[find(e)] = find(first[label[x]])
            else:
                first[label[x]] = e
        if len(first) > 1:
            cuts.add(w)
    blocks = {}
    for e in g.edges:
        blocks.setdefault(find(e), set()).update(e)
    return [set(b) for b in blocks.values()] + [{v} for v in range(n) if not adj[v]], cuts


def _components(g):
    """Components by union-find, as sorted tuples ordered by least vertex."""
    root = list(range(g.vertex_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    comps = {}
    for v in range(g.vertex_count):
        comps.setdefault(find(v), []).append(v)
    return tuple(sorted(map(tuple, comps.values())))


def _reference_forest(g):
    """Every field of ``block_cut_forest`` from the deletion oracle and a
    union-find."""
    blocks, cuts = _deletion_forest(g)
    blocks = sorted(tuple(sorted(b)) for b in blocks)
    in_block = [[v for v in blk if v in cuts] for blk in blocks]
    return {"blocks": tuple(blocks), "cut_vertices": frozenset(cuts),
            "leaf_blocks": tuple(i for i, c in enumerate(in_block) if len(c) == 1),
            "isolated_blocks": tuple(i for i, c in enumerate(in_block) if not c),
            "interiors": tuple(tuple(v for v in blk if v not in cuts) for blk in blocks),
            "components": _components(g)}


def _length_order(r):
    """The 2-RNG's edges sorted by (length, edge), as the solver probes them."""
    return [e for _, e in sorted(zip(r.lengths, r.edges))]


def _prefixes(r, step=1):
    edges = _length_order(r)
    for p in range(0, len(edges) + 1, step):
        yield Graph(r.vertex_count, tuple(edges[:p]))


def _point_sets():
    yield from (pts for _, pts in property_sets(random.Random(31)))
    for n, seed in ((12, 1), (20, 2), (30, 3)):
        yield generate_instance(n, seed, "uniform" if seed % 2 else "clusters")


def test_forest_and_components_match_the_deletion_oracle():
    # connected_components and is_connected read the forest's components
    rng = random.Random(77)
    graphs = [random_graph(rng, rng.randint(0, 30), rng.uniform(0.02, 0.4)) for _ in range(300)]
    graphs += [g for pts in _point_sets() for g in _prefixes(build_2rng(pts))]
    # the chunk-boundary 2-RNGs, at every fortieth prefix and in full
    graphs += [g for pts in chunk_boundary_instances().values()
               for g in _prefixes(build_2rng(pts), 40)]
    graphs += [build_2rng(pts) for pts in chunk_boundary_instances().values()]
    for g in graphs:
        bcf, want = block_cut_forest(g), _reference_forest(g)
        assert {f: getattr(bcf, f) for f in want} == want, g
        assert connected_components(g) == list(map(list, want["components"]))
        assert is_connected(g) == (len(want["components"]) <= 1)


def test_connecting_prefix_is_where_prefixes_become_connected():
    rng = random.Random(78)
    orders = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.6))
        orders.append((g.vertex_count, rng.sample(g.edges, len(g.edges))))
    orders += [(len(pts), _length_order(build_2rng(pts))) for pts in _point_sets()]
    for n, edges in orders:
        at = connecting_prefix(n, edges)
        for p in range(len(edges) + 1):
            assert (p >= at) == is_connected(make_graph(n, edges[:p])), (n, edges, p)
        assert at <= len(edges) or not is_connected(make_graph(n, edges))
    # monotone, so the two prefixes around the index decide it on large 2-RNGs
    for pts in chunk_boundary_instances().values():
        edges = _length_order(build_2rng(pts))
        at = connecting_prefix(len(pts), edges)
        assert is_connected(make_graph(len(pts), edges[:at]))
        assert not is_connected(make_graph(len(pts), edges[:at - 1]))


def test_degree_prefix_is_where_every_degree_reaches_two():
    rng = random.Random(79)
    orders = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.6))
        orders.append((g.vertex_count, rng.sample(g.edges, len(g.edges))))
    orders += [(len(pts), _length_order(build_2rng(pts))) for pts in _point_sets()]
    for n, edges in orders:
        at = degree_prefix(n, edges)
        for p in range(len(edges) + 1):
            degree = [0] * n
            for e in edges[:p]:
                for w in e:
                    degree[w] += 1
            assert (p >= at) == all(d >= 2 for d in degree), (n, edges, p)


def test_least_biconnected_prefix_on_random_edge_orders():
    """The walk equals a linear scan on any edge list: random order and
    orientation, disconnected prefixes, no 2-connected prefix at all
    (len(edges) + 1), and any floor not past the answer."""
    rng = random.Random(80)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.uniform(0.05, 0.9))
        n = g.vertex_count
        edges = [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(g.edges, len(g.edges))]
        scan = next((p for p in range(len(edges) + 1) if is_biconnected_edges(n, edges[:p])),
                    len(edges) + 1)
        for floor in {0, rng.randint(0, scan), scan}:
            assert least_biconnected_prefix(n, edges, floor) == scan, (n, edges, floor)


def test_classify_case_1_is_the_base_topology_test():
    # classify decides case 1 on the raw edge list; the base topology built
    # here the long way must agree on every partition of every prefix
    seen = {True: 0, False: 0}
    for pts in _point_sets():
        for g in _prefixes(build_2rng(pts)):
            bcf = block_cut_forest(g)
            if b_count(g) > 10 or len(bcf.blocks) == 1:
                continue
            n = g.vertex_count
            singles = [bcf.blocks[b] for b in bcf.isolated_blocks]
            for part in enumerate_partitions(bcf):
                e0 = [(n, min(bcf.interiors[b])) for b in part.side1]
                e0 += [(n + 1, min(bcf.interiors[b])) for b in part.side2]
                # an isolated block meets s1 at its first vertex, s2 at its second
                e0 += [e for blk in singles for e in ((blk[0], n), (blk[:2][-1], n + 1))]
                topo = classify(g, part)
                base = make_graph(n + 2, list(g.edges) + e0)
                assert (topo.case_tag == "case1") == is_biconnected(base), (n, part)
                assert topo.base_topology == base
                seen[topo.case_tag == "case1"] += 1
    assert min(seen.values()) > 100, seen


def test_case2_block_path_is_the_base_topology_forest_in_path_order():
    # the block path read off one pass from s1 holds the blocks of the base
    # topology's full forest, from s1's end to s2's, each sharing exactly its
    # junction with the one before, and its cells partition every vertex
    paths = 0
    for pts in _point_sets():
        for g in _prefixes(build_2rng(pts)):
            bcf = block_cut_forest(g)
            if b_count(g) > 10 or len(bcf.blocks) == 1:
                continue
            n = g.vertex_count
            for part in enumerate_partitions(bcf):
                topo = classify(g, part)
                if topo.case_tag != "case2":
                    continue
                bp = topo.block_path
                base = block_cut_forest(make_graph(n + 2, topo.base_edges))
                assert sorted(bp.blocks) == list(base.blocks), (n, part)
                assert n in bp.blocks[0] and n + 1 in bp.blocks[-1]
                assert len(bp.junctions) == len(bp.blocks) - 1
                for a, b, j in zip(bp.blocks, bp.blocks[1:], bp.junctions):
                    assert set(a) & set(b) == {j} and j in base.cut_vertices
                assert bp.cells[0] == bp.blocks[0]
                for cell, blk, j in zip(bp.cells[1:], bp.blocks[1:], bp.junctions):
                    assert cell == tuple(v for v in blk if v != j)
                assert sorted(v for cell in bp.cells for v in cell) == list(range(n + 2))
                assert bp.single_edge_first == (len(bp.blocks[0]) == 2)
                assert bp.single_edge_last == (len(bp.blocks[-1]) == 2)
                paths += 1
    assert paths > 50, paths
