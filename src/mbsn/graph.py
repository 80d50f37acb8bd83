"""Undirected simple graphs on indexed vertices, block cut-vertex forests,
and the leaf/isolated-block counter used as the search feasibility filter.

One iterative low-point pass, ``closed_blocks``, answers every block
question: it builds the forest, which each graph keeps once built
(``Graph.forest``), decides 2-connectivity of a raw edge list, and gives
closure2 the block path of a case-2 base topology.

Isolated vertices and isolated edges count as blocks (K1 and K2 are treated
as 2-connected throughout).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .geom import Point2, distance


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph; lengths are optional per-edge data."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    lengths: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not normalised (need u < v)")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.lengths is not None and len(self.lengths) != len(self.edges):
            raise ValueError("lengths do not align with edges")

    @functools.cached_property
    def forest(self) -> BlockCutForest:
        """The block cut-vertex forest, built once per graph."""
        return block_cut_forest(self)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]],
               lengths: Iterable[float] | None = None) -> Graph:
    """Normalise edge orientation and ordering; lengths follow their edges."""
    es = [(u, v) if u < v else (v, u) for u, v in edges]
    order = sorted(range(len(es)), key=lambda i: es[i])
    if lengths is None:
        return Graph(vertex_count, tuple(es[i] for i in order))
    ls = list(lengths)
    return Graph(vertex_count, tuple(es[i] for i in order), tuple(ls[i] for i in order))


def geometric_graph(points: Sequence[Point2], edges: Iterable[tuple[int, int]]) -> Graph:
    es = list(edges)
    return make_graph(len(points), es, [distance(points[u], points[v]) for u, v in es])


def connected_components(g: Graph) -> list[list[int]]:
    """Sorted vertex lists, ordered by their least vertex."""
    return [list(c) for c in g.forest.components]


def is_connected(g: Graph) -> bool:
    return len(g.forest.components) <= 1


@dataclass(frozen=True)
class BlockCutForest:
    """Blocks, cut-vertices and their incidence structure for one graph.

    ``blocks`` are sorted vertex tuples; classification is per block by the
    number of cut-vertices it contains (0 = isolated, 1 = leaf).
    ``components`` are the connected components, as sorted vertex tuples
    ordered by their least vertex.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    leaf_blocks: tuple[int, ...]
    isolated_blocks: tuple[int, ...]
    interiors: tuple[tuple[int, ...], ...] = field(repr=False)
    components: tuple[tuple[int, ...], ...] = field(repr=False)


def closed_blocks(n: int, edges: Iterable[tuple[int, int]],
                  roots: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The blocks of vertices 0..n-1 with ``edges`` in any order and
    orientation, as one iterative depth-first pass with low-points and a
    vertex stack closes them: from each root not yet reached, in turn.  A
    block lists the vertex it closes at last, its other vertices in
    discovery order; a root without edges closes as the block (root,).  The
    blocks of one component come in a row, the last of them closing at its
    root, and each block closes after every block below it."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n
    low = [0] * n
    at = [0] * n  # each vertex's position on ``seen``
    timer = 0
    for root in roots:
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        if not adj[root]:
            yield (root,)
            continue
        seen = []  # vertices of the blocks not closed yet, in discovery order
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    at[w] = len(seen)
                    seen.append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != p and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if p < 0:
                    continue
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:  # p separates v's subtree: a block closes at p
                    yield (*seen[at[v]:], p)
                    del seen[at[v]:]


def block_cut_forest(g: Graph) -> BlockCutForest:
    """Blocks, cut vertices and components from ``closed_blocks`` run from
    every vertex in ascending order, so each component's root is its least
    vertex.  Read backwards, a component starts at the last block closing at
    its root, and every block joins the component of the vertex it closes
    at.  A vertex already placed when a block closes at it lies in two
    blocks, so it is a cut vertex: a non-root is placed by the block it
    shares with its parent, which closes after its own, and a root by its
    last block.  The result does not depend on the order in which the pass
    meets vertices."""
    n = g.vertex_count
    closed = list(closed_blocks(n, g.edges, range(n)))
    comp = [-1] * n  # components numbered from the last root down
    cut: set[int] = set()
    count = 0
    for blk in reversed(closed):
        c = comp[blk[-1]]
        if c < 0:
            c, count = count, count + 1
        else:
            cut.add(blk[-1])
        for w in blk:
            comp[w] = c
    comps: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        comps[comp[v]].append(v)
    comps.reverse()  # roots ascend, so components go by their least vertex
    block_sets = sorted(tuple(sorted(blk)) for blk in closed)

    leaf: list[int] = []
    isolated: list[int] = []
    interiors: list[tuple[int, ...]] = []
    for i, blk in enumerate(block_sets):
        inner = blk if cut.isdisjoint(blk) else tuple(v for v in blk if v not in cut)
        interiors.append(inner)
        cuts_in = len(blk) - len(inner)
        if cuts_in == 0:
            isolated.append(i)
        elif cuts_in == 1:
            leaf.append(i)
    return BlockCutForest(
        blocks=tuple(block_sets),
        cut_vertices=frozenset(cut),
        leaf_blocks=tuple(leaf),
        isolated_blocks=tuple(isolated),
        interiors=tuple(interiors),
        components=tuple(map(tuple, comps)),
    )


def is_biconnected(g: Graph) -> bool:
    """2-connectivity with the convention that K1 and K2 are 2-connected."""
    return is_biconnected_edges(g.vertex_count, g.edges)


def is_biconnected_edges(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    """2-connectivity of vertices 0..n-1 with ``edges`` in any order and
    orientation (K1, K2 and n = 0 count as 2-connected): whether the first
    block ``closed_blocks`` closes from vertex 0 holds every vertex.  The
    pass stops there: at the first cut vertex, at the root's first child
    when it has a second, or with the whole component reached."""
    if n <= 2:
        return n < 2 or len(edges) == 1
    return len(edges) >= n and len(next(closed_blocks(n, edges, (0,)))) == n


def connecting_prefix(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """The least p for which ``edges[:p]`` connects vertices 0..n-1 (one
    union-find pass); len(edges) + 1 when no prefix does."""
    root, joins = list(range(n)), n - 1
    if joins <= 0:
        return 0
    for p, (u, v) in enumerate(edges):
        while root[u] != u:  # path halving
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            joins -= 1
            if not joins:
                return p + 1
    return len(edges) + 1


def degree_prefix(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """The least p for which every vertex 0..n-1 has degree at least 2 in
    ``edges[:p]`` (one pass); len(edges) + 1 when no prefix does."""
    degree, short = [0] * n, n  # vertices still below degree 2
    if not short:
        return 0
    for p, e in enumerate(edges):
        for w in e:
            degree[w] += 1
            if degree[w] == 2:
                short -= 1
        if not short:
            return p + 1
    return len(edges) + 1


def b_count(g: Graph) -> int:
    """Leaf blocks plus twice the isolated blocks of g."""
    return len(g.forest.leaf_blocks) + 2 * len(g.forest.isolated_blocks)


def max_edge_length(g: Graph) -> tuple[float, tuple[int, int]]:
    """Longest edge length and a deterministic representative edge
    (ties broken by lexicographic endpoint indices)."""
    if g.lengths is None:
        raise ValueError("graph has no edge lengths")
    if not g.edges:
        raise ValueError("graph has no edges")
    best_len = max(g.lengths)
    best_edge = min(e for e, ln in zip(g.edges, g.lengths) if ln == best_len)
    return best_len, best_edge
