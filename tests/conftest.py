"""Shared independent oracles and generators for the test suite.

Everything here is deliberately naive (plain loops, deletion tests,
union-find) so the production implementations are checked against a
second, structurally different route.
"""

from __future__ import annotations

import math
import random

import numpy as np

from mbsn.cli import generate_instance
from mbsn.geom import Point2, bbox_diagonal
from mbsn.graph import Graph, make_graph


def naive_lune_graph(points: list[Point2], eps: float) -> set[tuple[int, int]]:
    """Direct O(n^3) 2-RNG: count points strictly inside each lune."""
    n = len(points)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            dij = math.dist(points[i].as_tuple(), points[j].as_tuple())
            inside = 0
            for k in range(n):
                if k in (i, j):
                    continue
                dik = math.dist(points[i].as_tuple(), points[k].as_tuple())
                djk = math.dist(points[j].as_tuple(), points[k].as_tuple())
                if dik < dij - eps and djk < dij - eps:
                    inside += 1
            if inside < 2:
                edges.add((i, j))
    return edges


def naive_cut_vertices(g: Graph) -> set[int]:
    """Deletion test: v is a cut vertex iff removing it increases the
    component count among the remaining vertices."""
    def ncomp(vertices, edges):
        seen = set()
        adj = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        count = 0
        for s in vertices:
            if s in seen:
                continue
            count += 1
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return count

    verts = list(range(g.vertex_count))
    base = ncomp(verts, g.edges)
    out = set()
    for v in verts:
        rem_v = [u for u in verts if u != v]
        rem_e = [e for e in g.edges if v not in e]
        # isolated vertices do not cut anything
        if ncomp(rem_v, rem_e) > base - (0 if any(v in e for e in g.edges) else 1):
            if any(v in e for e in g.edges):
                if ncomp(rem_v, rem_e) > base:
                    out.add(v)
    return out


def naive_blocks(g: Graph) -> set[frozenset[int]]:
    """Blocks as edge equivalence classes: two edges sharing vertex w are in
    the same block iff their far endpoints stay connected in G - w."""
    edges = list(g.edges)
    parent = list(range(len(edges)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def connected_avoiding(u, v, w):
        adj = {x: [] for x in range(g.vertex_count)}
        for a, b in edges:
            if w not in (a, b):
                adj[a].append(b)
                adj[b].append(a)
        stack, seen = [u], {u}
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    by_vertex: dict[int, list[int]] = {}
    for idx, (u, v) in enumerate(edges):
        by_vertex.setdefault(u, []).append(idx)
        by_vertex.setdefault(v, []).append(idx)
    for w, incident in by_vertex.items():
        for a in range(len(incident)):
            for b in range(a + 1, len(incident)):
                e1, e2 = edges[incident[a]], edges[incident[b]]
                u = e1[0] if e1[1] == w else e1[1]
                v = e2[0] if e2[1] == w else e2[1]
                if connected_avoiding(u, v, w):
                    ra, rb = find(incident[a]), find(incident[b])
                    if ra != rb:
                        parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for idx, (u, v) in enumerate(edges):
        groups.setdefault(find(idx), set()).update((u, v))
    out = {frozenset(s) for s in groups.values()}
    covered = set().union(*out) if out else set()
    for v in range(g.vertex_count):
        if v not in covered:
            out.add(frozenset((v,)))
    return out


def naive_b_count(g: Graph) -> int:
    blocks = naive_blocks(g)
    cuts = naive_cut_vertices(g)
    total = 0
    for blk in blocks:
        k = len(blk & cuts)
        if k == 0:
            total += 2
        elif k == 1:
            total += 1
    return total


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def random_points(rng: random.Random, n: int, spread: float = 1.0) -> list[Point2]:
    pts: list[Point2] = []
    while len(pts) < n:
        cand = Point2(rng.random() * spread, rng.random() * spread)
        if all(math.dist(cand.as_tuple(), p.as_tuple()) > 1e-6 for p in pts):
            pts.append(cand)
    return pts


def chunk_boundary_instances() -> dict[str, list[Point2]]:
    """Instances of more than one ``_CHUNK`` row block of ``build_2rng``'s
    distance fill; the lattices have many equal lengths."""
    return {"lattice-17x17": [Point2(i, j) for i in range(17) for j in range(17)],
            "lattice-17x17-rect": [Point2(i, 1.5 * j) for i in range(17) for j in range(17)],
            "uniform-257": generate_instance(257, 7, "uniform"),
            "clusters-257": generate_instance(257, 8, "clusters"),
            "uniform-300": generate_instance(300, 9, "uniform"),
            "clusters-300": generate_instance(300, 10, "clusters")}


def grid_min_spanning_radius(classes: list[list[tuple[float, float]]],
                             lo: float, hi: float, k: int = 220) -> tuple[float, float]:
    """Dense-grid minimum of the colour-spanning objective and the grid's
    half-diagonal (the objective is 1-Lipschitz, so the true minimum is at
    least grid_min minus that slack)."""
    xs = np.linspace(lo, hi, k)
    X, Y = np.meshgrid(xs, xs)
    f = None
    for cls in classes:
        m = None
        for (px, py) in cls:
            d = np.hypot(X - px, Y - py)
            m = d if m is None else np.minimum(m, d)
        f = m if f is None else np.maximum(f, m)
    step = xs[1] - xs[0]
    return float(f.min()), step * math.sqrt(2.0) / 2.0


def property_sets(rng: random.Random):
    """Degenerate point sets: (name, points): lattices, collinear and
    cocircular sets, near-duplicate pairs at 1e-10 of the diagonal, and far
    clusters."""
    for _ in range(4):
        w = rng.randint(3, 5)
        grid = [(x, y) for x in range(w) for y in range(w)]
        cells = rng.sample(grid, rng.randint(4, min(14, w * w)))
        yield "lattice", [Point2(float(x), float(y)) for x, y in cells]
    for _ in range(3):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        ts = sorted(rng.sample(range(40), rng.randint(4, 10)))
        yield "collinear", [Point2(a + 0.25 * t, b - 0.5 * t) for t in ts]
    for _ in range(3):
        angles = rng.sample(range(24), rng.randint(4, 10))
        yield "cocircular", [Point2(0.5 + 0.3 * math.cos(math.pi * t / 12),
                                    0.5 + 0.3 * math.sin(math.pi * t / 12)) for t in angles]
    for _ in range(3):
        base = [Point2(rng.random(), rng.random()) for _ in range(rng.randint(3, 7))]
        gap = 1e-10 * bbox_diagonal(base)
        twins = [Point2(p.x + gap, p.y) for p in rng.sample(base, 2)]
        yield "near-duplicate", base + twins
    for _ in range(3):
        centres = [(0.0, 0.0), (1e3, 0.0), (0.0, 1e3)][:rng.randint(2, 3)]
        yield "far clusters", [Point2(cx + 0.01 * rng.random(), cy + 0.01 * rng.random())
                               for cx, cy in centres for _ in range(rng.randint(2, 4))]
