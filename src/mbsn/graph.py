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

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj


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
    adj = g.adjacency()
    seen = [False] * g.vertex_count
    comps: list[list[int]] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    if g.vertex_count <= 1:
        return True
    return len(connected_components(g)) == 1


@dataclass(frozen=True)
class BlockCutForest:
    """Blocks, cut-vertices and their incidence structure for one graph.

    ``blocks`` are sorted vertex tuples; classification is per block by the
    number of cut-vertices it contains (0 = isolated, 1 = leaf).
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]
    leaf_blocks: tuple[int, ...]
    isolated_blocks: tuple[int, ...]
    block_adjacency: dict[int, tuple[int, ...]] = field(repr=False)
    interiors: tuple[tuple[int, ...], ...] = field(repr=False)
    leaf_tau: dict[int, int] = field(repr=False)


def block_cut_forest(g: Graph) -> BlockCutForest:
    """Block decomposition by one depth-first pass with low-points and an
    edge stack; isolated vertices are emitted as singleton blocks."""
    n = g.vertex_count
    adj = g.adjacency()
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cut = [False] * n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, object]] = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:  # type: ignore[union-attr]
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        blk: list[tuple[int, int]] = []
                        while True:
                            e = edge_stack.pop()
                            blk.append(e)
                            if e == (u, v):
                                break
                        raw_blocks.append(blk)
                        if u != root:
                            cut[u] = True
        if root_children >= 2:
            cut[root] = True

    block_sets = [tuple(sorted({v for e in blk for v in e})) for blk in raw_blocks]
    block_sets += [(v,) for v in range(n) if not adj[v]]
    block_sets.sort()

    cut_vs = frozenset(v for v in range(n) if cut[v])
    leaf: list[int] = []
    isolated: list[int] = []
    interiors: list[tuple[int, ...]] = []
    leaf_tau: dict[int, int] = {}
    adjacency: dict[int, list[int]] = {v: [] for v in cut_vs}
    for i, blk in enumerate(block_sets):
        cuts_in = [v for v in blk if v in cut_vs]
        interiors.append(tuple(v for v in blk if v not in cut_vs))
        for v in cuts_in:
            adjacency[v].append(i)
        if len(cuts_in) == 0:
            isolated.append(i)
        elif len(cuts_in) == 1:
            leaf.append(i)
            leaf_tau[i] = cuts_in[0]
    return BlockCutForest(
        blocks=tuple(block_sets),
        cut_vertices=cut_vs,
        leaf_blocks=tuple(leaf),
        isolated_blocks=tuple(isolated),
        block_adjacency={v: tuple(ids) for v, ids in adjacency.items()},
        interiors=tuple(interiors),
        leaf_tau=leaf_tau,
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
