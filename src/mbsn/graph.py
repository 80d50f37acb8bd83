"""Undirected simple graphs on indexed vertices, block cut-vertex forests,
and the leaf/isolated-block counter used as the search feasibility filter.

Isolated vertices and isolated edges count as blocks (K1 and K2 are treated
as 2-connected throughout).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    return [list(c) for c in block_cut_forest(g).components]


def is_connected(g: Graph) -> bool:
    return len(block_cut_forest(g).components) <= 1


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


def block_cut_forest(g: Graph) -> BlockCutForest:
    """Block decomposition by one depth-first pass with low-points and a
    vertex stack; isolated vertices are emitted as singleton blocks.  The
    pass also labels each vertex with its component, the root's.  The
    result does not depend on the order in which the pass meets vertices."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n
    low = [0] * n
    cut = [False] * n
    comp = [-1] * n
    at = [0] * n  # each vertex's position on ``seen``
    block_sets: list[tuple[int, ...]] = []
    timer = components = 0

    for root in range(n):
        if comp[root] != -1:
            continue
        comp[root] = components
        components += 1
        if not adj[root]:
            block_sets.append((root,))
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        seen = []  # vertices of the blocks not emitted yet, in discovery order
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, p, it = stack[-1]
            for w in it:
                if disc[w] == -1:
                    comp[w] = comp[root]
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
                if low[v] >= disc[p]:  # p separates v's subtree: a block ends
                    block_sets.append(tuple(sorted(seen[at[v]:] + [p])))
                    del seen[at[v]:]
                    if p != root:
                        cut[p] = True
                    else:
                        root_children += 1
        if root_children >= 2:
            cut[root] = True

    comps: list[list[int]] = [[] for _ in range(components)]
    for v in range(n):  # roots go in ascending order, so components do too
        comps[comp[v]].append(v)
    block_sets.sort()

    cut_vs = frozenset(v for v in range(n) if cut[v])
    leaf: list[int] = []
    isolated: list[int] = []
    interiors: list[tuple[int, ...]] = []
    for i, blk in enumerate(block_sets):
        interiors.append(tuple(v for v in blk if v not in cut_vs))
        cuts_in = len(blk) - len(interiors[-1])
        if cuts_in == 0:
            isolated.append(i)
        elif cuts_in == 1:
            leaf.append(i)
    return BlockCutForest(
        blocks=tuple(block_sets),
        cut_vertices=cut_vs,
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
    orientation (K1, K2 and n = 0 count as 2-connected): one iterative
    low-point pass from vertex 0 that stops at the first cut vertex, at a
    second root child or with a vertex unreached."""
    if n <= 2:
        return n < 2 or len(edges) == 1
    if len(edges) < n:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [0] + [-1] * (n - 1)
    low = [0] * n
    timer = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, p, it = stack[-1]
        for w in it:
            if disc[w] == -1:
                if v == 0 and timer > 1:
                    return False  # a second root child: the root is a cut vertex
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                break
            if w != p and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if p > 0:
                if low[v] >= disc[p]:
                    return False  # p separates v's subtree from the root
                if low[v] < low[p]:
                    low[p] = low[v]
    return timer == n


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


def b_count(g: Graph, bcf: BlockCutForest | None = None) -> int:
    """Leaf blocks plus twice the isolated blocks of g (or of its forest ``bcf``)."""
    bcf = bcf or block_cut_forest(g)
    return len(bcf.leaf_blocks) + 2 * len(bcf.isolated_blocks)


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
