"""Top-level solver: minimum bottleneck 2-connected networks with
k = 0, 1 or 2 Steiner points.

Every k runs one pipeline: a binary search with incumbent tracking over the
ordered edge lengths of the 2-relative neighbourhood graph, pricing each
threshold graph G_t, then one assembly of G_t* plus the k Steiner points
and their edges.  For k = 0 a threshold is feasible exactly when G_t is
2-connected; the 2-RNG edges are sorted by length once, and a probe tests
the prefix of edges of length at most t without building a ``Graph``.  For
k >= 1 it is infeasible when the leaf/isolated-block counter exceeds 5k
(plus, for k = 1, when G_t is disconnected); otherwise the optimal k-block
closure of G_t prices it at max(closure radius, t).  The k = 2 schedule is
prepended with 0 because an optimal network minus its Steiner points may
be edgeless.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .closure1 import optimal_1block_closure
from .closure2 import optimal_2block_closure, separate_coincident
from .geom import Point2, distance, geometry_eps
from .graph import (Graph, b_count, is_biconnected, is_biconnected_edges, is_connected,
                    make_graph)
from .rng import build_2rng, length_schedule, threshold_subgraph
from .scsd import ScsdContext

# (feasible, closure radius, (edges of G_t, Steiner points, Steiner edges));
# Steiner point i has index n + i in the edges
Evaluation = tuple[bool, float, object]


def _max_edge(points: Sequence[Point2], edges: Sequence[tuple[int, int]]) -> float:
    return max(distance(points[u], points[v]) for u, v in edges)


@dataclass(frozen=True)
class SolutionNetwork:
    """A 2-connected network spanning the terminals plus k Steiner points.

    Edge indices 0..n-1 are terminals in input order, n..n+k-1 the Steiner
    points; the threshold is the winning schedule value."""

    terminals: tuple[Point2, ...]
    steiner: tuple[Point2, ...]
    edges: tuple[tuple[int, int], ...]
    k: int
    threshold: float
    bottleneck: float

    def all_points(self) -> tuple[Point2, ...]:
        return self.terminals + self.steiner

    def recomputed_bottleneck(self) -> float:
        return _max_edge(self.all_points(), self.edges)

    def as_graph(self) -> Graph:
        pts = self.all_points()
        return make_graph(len(pts), self.edges,
                          [distance(pts[u], pts[v]) for u, v in self.edges])

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant."""
        if len(self.steiner) != self.k:
            raise ValueError("wrong number of Steiner points")
        pts = self.all_points()
        if len({p.as_tuple() for p in pts}) != len(pts):
            raise ValueError("Steiner points must be distinct from all other points")
        if not is_biconnected(self.as_graph()):
            raise ValueError("network is not 2-connected")
        eps = max(geometry_eps(pts), 1e-12)
        if abs(self.recomputed_bottleneck() - self.bottleneck) > eps:
            raise ValueError("recorded bottleneck disagrees with the edge list")


@dataclass(frozen=True)
class ThresholdEval:
    threshold: float
    feasible: bool
    radius: float | None
    objective: float | None


def _binary_search(lengths: Sequence[float],
                   evaluate: Callable[[float], Evaluation]):
    """Classical lo/hi index search recording the best feasible objective.

    Infeasibility is monotone below (the block counter only grows on edge
    subgraphs) and the closure radius is monotone above, so each discarded
    half is dominated by the probed value."""
    lo, hi = 0, len(lengths) - 1
    best = None  # (objective, threshold, payload)
    while lo <= hi:
        mid = (lo + hi) // 2
        t = lengths[mid]
        feasible, radius, payload = evaluate(t)
        if not feasible:
            lo = mid + 1
            continue
        obj = max(radius, t)
        if best is None or obj < best[0]:
            best = (obj, t, payload)
        if radius <= t:
            hi = mid - 1
        else:
            lo = mid + 1
    assert best is not None, "no feasible threshold (the full 2-RNG is always feasible)"
    return best


def _evaluator(r: Graph, pts: tuple[Point2, ...], k: int) -> Callable[[float], Evaluation]:
    """Prices one threshold of the 2-RNG ``r``; for k >= 1 every probe shares
    one global colour-disk context."""
    if k == 0:
        order = sorted(range(len(r.edges)), key=r.lengths.__getitem__)
        edges = [r.edges[i] for i in order]
        lengths = [r.lengths[i] for i in order]

        def evaluate(t: float) -> Evaluation:
            prefix = edges[:bisect_right(lengths, t)]
            return is_biconnected_edges(len(pts), prefix), 0.0, (prefix, (), ())

        return evaluate

    n = len(pts)
    ctx = ScsdContext(pts)
    if k == 1:
        def evaluate(t: float) -> Evaluation:
            g = threshold_subgraph(r, t)
            if not is_connected(g) or b_count(g) > 5:
                return False, math.inf, None
            clo = optimal_1block_closure(g, pts, ctx)
            # the disk centre may sit on a terminal; nudge it off
            s = separate_coincident(pts, [clo.steiner],
                                    [[pts[v] for v in clo.steiner_edges]], [])[0]
            return True, clo.radius, (g.edges, (s,), tuple((v, n) for v in clo.steiner_edges))

        return evaluate

    index = {"s1": n, "s2": n + 1}

    def evaluate(t: float) -> Evaluation:
        g = threshold_subgraph(r, t)
        if b_count(g) > 10:
            return False, math.inf, None
        emb = optimal_2block_closure(g, pts, ctx)
        edges = tuple((index[a], index[b] if isinstance(b, str) else b)
                      for a, b in emb.steiner_edges)
        return True, emb.radius, (g.edges, (emb.s1, emb.s2), edges)

    return evaluate


def _pipeline(points: Sequence[Point2], k: int) -> tuple[
        tuple[Point2, ...], tuple[float, ...], Callable[[float], Evaluation]]:
    """The terminals, the threshold schedule and the per-threshold evaluator."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    pts = tuple(points)
    r = build_2rng(pts)  # raises on fewer than 2 or duplicate points
    return pts, length_schedule(r, include_zero=k == 2), _evaluator(r, pts, k)


def _assemble(pts: tuple[Point2, ...], t: float, payload) -> SolutionNetwork:
    """The edges of G_t plus the Steiner points and their edges."""
    g_edges, steiner, steiner_edges = payload
    edges = tuple(sorted((min(e), max(e)) for e in (*g_edges, *steiner_edges)))
    return SolutionNetwork(pts, steiner, edges, len(steiner), t,
                           _max_edge(pts + steiner, edges))


def solve(points: Sequence[Point2], k: int) -> SolutionNetwork:
    """Minimum bottleneck 2-connected network on the points plus k Steiner
    points; raises ValueError for k outside 0..2, fewer than 2 points or
    duplicate points."""
    pts, lengths, evaluate = _pipeline(points, k)
    _, t_star, payload = _binary_search(lengths, evaluate)
    return _assemble(pts, t_star, payload)


def mbsn0(points: Sequence[Point2]) -> SolutionNetwork:
    """Minimum bottleneck 2-connected spanning network (no Steiner points):
    the least threshold at which the 2-RNG threshold subgraph is 2-connected."""
    return solve(points, 0)


def mbsn1(points: Sequence[Point2]) -> SolutionNetwork:
    return solve(points, 1)


def mbsn2(points: Sequence[Point2]) -> SolutionNetwork:
    return solve(points, 2)


def threshold_scan(points: Sequence[Point2], k: int) -> list[ThresholdEval]:
    """Exhaustive per-threshold evaluation over the whole schedule; used to
    verify that the binary search returns the same objective."""
    _, lengths, evaluate = _pipeline(points, k)
    out = []
    for t in lengths:
        feasible, radius, _ = evaluate(t)
        out.append(ThresholdEval(t, feasible, radius if feasible else None,
                                 max(radius, t) if feasible else None))
    return out
